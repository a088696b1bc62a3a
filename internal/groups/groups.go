// Package groups manages secret groups and fellows (§IV-A, §VI): subjects
// and objects whose sensitive attributes allow them to recognize each other
// share one symmetric group key K_i^grp. The mapping between group IDs and
// the sensitive attributes they represent is kept to the admin only (§VII
// Case 5) — nothing in this package's issued material names the attribute.
//
// Subjects with no sensitive attribute still receive a cover-up key: a unique
// random key owned by nobody else, so their Level 3 MACs look exactly like a
// real fellow's (§VI-B).
//
// Removing a member rotates the group key and re-issues it to the remaining
// fellows; the returned notification count (γ−1) is the Level 3 updating
// overhead analyzed in §VIII.
package groups

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"argus/internal/cert"
	"argus/internal/suite"
)

// ID identifies a secret group. IDs are opaque; only the admin knows which
// sensitive attribute a group corresponds to.
type ID uint64

// Membership is the material a fellow holds for one secret group: the group
// ID and the current symmetric key. A cover-up membership is structurally
// identical — CoverUp is known only to the backend and to the owning device
// (which must treat it like a real key to keep the cover).
type Membership struct {
	Group      ID
	Key        []byte
	KeyVersion uint64
	CoverUp    bool
}

// Group is the backend-side record of one secret group.
type Group struct {
	id          ID
	description string // admin-only: the sensitive attribute this group serves
	key         []byte
	keyVersion  uint64
	subjects    map[cert.ID]bool
	objects     map[cert.ID]bool
	// sorted holds every member (subject or object fellow, each once) in
	// cert.ID order, maintained incrementally on Add/RemoveMember. Rekey
	// notification fan-out is γ−1 per removal; re-deriving and re-sorting the
	// list per removal made bulk revocation churn O(γ² log γ) and dominated
	// the churn phase's CPU profile.
	sorted []cert.ID
}

// insertSorted adds id to g.sorted in order; no-op if already present.
func (g *Group) insertSorted(id cert.ID) {
	i, found := slices.BinarySearchFunc(g.sorted, id, cert.ID.Compare)
	if !found {
		g.sorted = slices.Insert(g.sorted, i, id)
	}
}

// removeSorted deletes id from g.sorted; no-op if absent.
func (g *Group) removeSorted(id cert.ID) {
	if i, found := slices.BinarySearchFunc(g.sorted, id, cert.ID.Compare); found {
		g.sorted = slices.Delete(g.sorted, i, i+1)
	}
}

// ID returns the group's identifier.
func (g *Group) ID() ID { return g.id }

// Description returns the admin-only sensitive-attribute description.
func (g *Group) Description() string { return g.description }

// Size returns γ: the number of fellows (subjects + objects).
func (g *Group) Size() int { return len(g.subjects) + len(g.objects) }

// KeyVersion returns the current key's version, bumped on every rotation.
func (g *Group) KeyVersion() uint64 { return g.keyVersion }

// Manager is the backend's secret-group registry.
type Manager struct {
	rng    io.Reader // nil → crypto/rand
	nextID ID
	groups map[ID]*Group
	// coverUps remembers each entity's issued cover-up membership so repeated
	// queries return stable material.
	coverUps map[cert.ID]Membership
	// coverUpSpace is the ID space cover-up groups are drawn from; real and
	// fake group IDs are interleaved so an ID alone reveals nothing.
	nextCover ID
}

// NewManager creates an empty registry. rng supplies key material
// (crypto/rand.Reader if nil).
func NewManager(rng io.Reader) *Manager {
	return &Manager{
		rng:       rng,
		nextID:    1,
		nextCover: 1 << 32, // disjoint from real IDs internally; opaque externally
		groups:    make(map[ID]*Group),
		coverUps:  make(map[cert.ID]Membership),
	}
}

// CreateGroup registers a new secret group for the given sensitive attribute
// description and draws its first key.
func (m *Manager) CreateGroup(description string) (*Group, error) {
	key, err := suite.NewGroupKey(m.rng)
	if err != nil {
		return nil, err
	}
	g := &Group{
		id:          m.nextID,
		description: description,
		key:         key,
		keyVersion:  1,
		subjects:    make(map[cert.ID]bool),
		objects:     make(map[cert.ID]bool),
	}
	m.nextID++
	m.groups[g.id] = g
	return g, nil
}

// Get returns the group with the given ID.
func (m *Manager) Get(id ID) (*Group, error) {
	g, ok := m.groups[id]
	if !ok {
		return nil, fmt.Errorf("groups: no group %d", id)
	}
	return g, nil
}

// Groups returns all group IDs in ascending order.
func (m *Manager) Groups() []ID {
	ids := make([]ID, 0, len(m.groups))
	for id := range m.groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AddMember adds an entity to a group as a subject or object fellow.
func (m *Manager) AddMember(gid ID, entity cert.ID, role cert.Role) error {
	g, err := m.Get(gid)
	if err != nil {
		return err
	}
	switch role {
	case cert.RoleSubject:
		g.subjects[entity] = true
	case cert.RoleObject:
		g.objects[entity] = true
	default:
		return errors.New("groups: invalid role")
	}
	g.insertSorted(entity)
	return nil
}

// RemoveMember removes an entity from a group and rotates the group key so
// the removed member can no longer participate in Level 3 discovery. It
// returns the fellows that must be re-keyed — the Level 3 updating overhead,
// γ−1 notifications (§VIII).
func (m *Manager) RemoveMember(gid ID, entity cert.ID) (rekeyed []cert.ID, err error) {
	g, err := m.Get(gid)
	if err != nil {
		return nil, err
	}
	if !g.subjects[entity] && !g.objects[entity] {
		return nil, fmt.Errorf("groups: %v is not a member of group %d", entity, gid)
	}
	delete(g.subjects, entity)
	delete(g.objects, entity)
	g.removeSorted(entity)
	key, err := suite.NewGroupKey(m.rng)
	if err != nil {
		return nil, err
	}
	g.key = key
	g.keyVersion++
	return slices.Clone(g.sorted), nil
}

// IsMember reports whether the entity currently belongs to the group.
func (m *Manager) IsMember(gid ID, entity cert.ID) bool {
	g, ok := m.groups[gid]
	if !ok {
		return false
	}
	return g.subjects[entity] || g.objects[entity]
}

// GroupsOf returns the IDs of the groups the entity belongs to, in ascending
// order. It walks the group map once and sorts only the matches, not every
// group ID as Groups does.
func (m *Manager) GroupsOf(entity cert.ID) []ID {
	var ids []ID
	for id, g := range m.groups {
		if g.subjects[entity] || g.objects[entity] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// MembershipsFor returns the current group material for an entity: one
// Membership per real group, sorted by group ID. If the entity belongs to no
// group and role is RoleSubject, a stable cover-up membership is issued
// instead — every subject leaves bootstrapping with at least one key (§VI-B).
func (m *Manager) MembershipsFor(entity cert.ID, role cert.Role) ([]Membership, error) {
	var out []Membership
	for _, gid := range m.GroupsOf(entity) {
		g := m.groups[gid]
		out = append(out, Membership{
			Group:      gid,
			Key:        append([]byte(nil), g.key...),
			KeyVersion: g.keyVersion,
		})
	}
	if len(out) == 0 && role == cert.RoleSubject {
		cu, err := m.coverUpFor(entity)
		if err != nil {
			return nil, err
		}
		out = append(out, cu)
	}
	return out, nil
}

// CoverUps returns how many cover-up memberships have been issued: it moves
// when MembershipsFor draws one.
func (m *Manager) CoverUps() int { return len(m.coverUps) }

// coverUpFor returns the entity's cover-up membership, creating it on first
// use. The key is a unique random value: no second entity owns it, so the
// MAC_{S,3} it produces never completes a handshake, yet is indistinguishable
// from a real fellow's MAC (§VI-B).
func (m *Manager) coverUpFor(entity cert.ID) (Membership, error) {
	if cu, ok := m.coverUps[entity]; ok {
		return cu, nil
	}
	key, err := suite.NewGroupKey(m.rng)
	if err != nil {
		return Membership{}, err
	}
	cu := Membership{Group: m.nextCover, Key: key, KeyVersion: 1, CoverUp: true}
	m.nextCover++
	m.coverUps[entity] = cu
	return cu, nil
}
