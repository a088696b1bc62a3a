// Package backend implements the enterprise backend of §IV-A: the (logically
// hierarchical) trusted authority at which every subject and object registers
// out of band. It maintains the access-control policy database, compiles
// per-object PROF variants, manages secret groups, and issues each entity its
// private key, CERT and PROFs.
//
// The backend is also where churn lands (§II-C item 4, §VIII): adding or
// removing subjects, objects and policies. Every mutating operation returns
// an UpdateReport counting the ground-network entities that must be notified
// — the updating overhead that Table I compares across Argus, ID-based ACL
// and ABE.
package backend

import (
	"fmt"
	"sort"
	"time"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/obs"
	"argus/internal/suite"
)

// Level is an object's secrecy level (§IV-A). It is assigned by the admin and
// the object "must keep that to itself" — it never appears in any credential
// or wire message.
type Level int

// The three visibility levels.
const (
	L1 Level = 1 // public: identical service information for everyone
	L2 Level = 2 // differentiated: visibility by non-sensitive attributes
	L3 Level = 3 // covert: visibility by sensitive attributes, hidden in L2
)

// String implements fmt.Stringer.
func (l Level) String() string { return fmt.Sprintf("Level %d", int(l)) }

// Valid reports whether l is a defined level.
func (l Level) Valid() bool { return l >= L1 && l <= L3 }

// DefaultProfileSize is the padded size of every issued PROF body, matching
// the paper's ~200 B average (§IX-A). Variants of one object are padded
// further, to the object's maximum, for constant-RES2-length (§VI-B).
const DefaultProfileSize = 200

// Policy is one attribute-based access-control rule (§II-B):
//
//	[subject: position=='manager'; object: type=='door lock'; rights: {open}]
//
// Subjects matching Subject may discover, on objects matching Object, a PROF
// variant exposing Rights.
type Policy struct {
	ID      uint64
	Subject *attr.Predicate // predicate over subjects' non-sensitive attributes
	Object  *attr.Predicate // predicate selecting the governed objects
	Rights  []string        // the service functions made visible
}

// SubjectRecord is the backend's view of a registered subject.
type SubjectRecord struct {
	ID      cert.ID
	Name    string
	Attrs   attr.Set // non-sensitive
	Revoked bool
}

// ObjectRecord is the backend's view of a registered object.
type ObjectRecord struct {
	ID        cert.ID
	Name      string
	Level     Level
	Attrs     attr.Set
	Functions []string // the full function set the object implements
	// covert maps each secret group the object serves to the covert service
	// functions offered to that group's fellows (Level 3 only).
	covert map[groups.ID][]string
	// revoked is the object's local list of de-authorized subject IDs,
	// maintained by backend notifications (§VIII: "remove ID_S from their
	// ACLs and refuse her future discovery").
	revoked map[cert.ID]bool
}

// UpdateReport quantifies the ground-network propagation cost of one backend
// mutation: which entities had to be notified or re-keyed. Its Total is the
// "updating overhead" metric of §VIII.
type UpdateReport struct {
	// NotifiedObjects had to update local state (ACL entries, PROF variants).
	NotifiedObjects []cert.ID
	// NotifiedSubjects had to receive new credentials or keys.
	NotifiedSubjects []cert.ID
}

// Total returns the number of affected ground entities.
func (r UpdateReport) Total() int { return len(r.NotifiedObjects) + len(r.NotifiedSubjects) }

// Backend is the in-memory enterprise backend.
type Backend struct {
	admin *cert.Admin
	// anchor is the ROOT trust anchor loaded onto devices. For a root backend
	// it is the admin's own CA cert; for a subordinate backend (§II-A
	// hierarchy) it is the parent hierarchy's root, so devices provisioned
	// anywhere in the enterprise authenticate each other.
	anchor   []byte
	strength suite.Strength
	Groups   *groups.Manager

	subjects map[cert.ID]*SubjectRecord
	objects  map[cert.ID]*ObjectRecord
	policies map[uint64]*Policy
	nextPol  uint64

	keys      map[cert.ID]*suite.SigningKey // issued private keys (escrow for re-provisioning)
	certs     map[cert.ID][]byte
	profSizes int

	now func() time.Time // profile-validity clock; nil = time.Now

	// Optional churn telemetry, resolved once by WithTelemetry; nil = off.
	churnC                  map[string]*obs.Counter // by op
	notifiedObj, notifiedSj *obs.Counter
}

// Option customizes New and NewSubordinate, mirroring the functional-options
// style of internal/core.
type Option func(*Backend)

// WithTelemetry attaches a metrics registry: every churn operation is
// counted (argus_backend_churn_ops_total by op, and the notified ground
// entities behind Table I's updating overhead as
// argus_backend_notified_total by kind).
func WithTelemetry(reg *obs.Registry) Option {
	return func(b *Backend) {
		b.churnC, b.notifiedObj, b.notifiedSj = nil, nil, nil
		if reg == nil {
			return
		}
		b.churnC = make(map[string]*obs.Counter, len(churnOps))
		for _, op := range churnOps {
			b.churnC[op] = reg.Counter(obs.MBackendChurnOps, "Backend churn operations, by kind.", obs.L("op", op))
		}
		notified := func(kind string) *obs.Counter {
			return reg.Counter(obs.MBackendNotified, "Ground entities notified by churn operations, by kind.", obs.L("kind", kind))
		}
		b.notifiedObj, b.notifiedSj = notified("object"), notified("subject")
	}
}

// churnOps are the op labels of argus_backend_churn_ops_total.
var churnOps = []string{
	"register_subject", "register_object", "add_policy", "remove_policy",
	"revoke_subject", "update_subject_attrs", "update_object_attrs", "remove_object",
}

// WithClock overrides the profile-validity clock (issuance and expiry
// stamps on provisioned PROFs). Tests use a fixed clock to pin the validity
// window of re-provisioned credentials.
func WithClock(now func() time.Time) Option { return func(b *Backend) { b.now = now } }

// countChurn records one churn operation and its propagation fan-out on the
// counters WithTelemetry resolved; with none this is a nil-receiver no-op
// inside the obs package.
func (b *Backend) countChurn(op string, rep UpdateReport) {
	b.churnC[op].Inc()
	b.notifiedObj.Add(int64(len(rep.NotifiedObjects)))
	b.notifiedSj.Add(int64(len(rep.NotifiedSubjects)))
}

// newBackend builds the shared skeleton and applies options.
func newBackend(admin *cert.Admin, anchor []byte, s suite.Strength, opts []Option) *Backend {
	b := &Backend{
		admin:     admin,
		anchor:    anchor,
		strength:  s,
		Groups:    groups.NewManager(nil),
		subjects:  make(map[cert.ID]*SubjectRecord),
		objects:   make(map[cert.ID]*ObjectRecord),
		policies:  make(map[uint64]*Policy),
		nextPol:   1,
		keys:      make(map[cert.ID]*suite.SigningKey),
		certs:     make(map[cert.ID][]byte),
		profSizes: DefaultProfileSize,
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// New creates a backend with a fresh admin identity at the given strength.
func New(s suite.Strength, opts ...Option) (*Backend, error) {
	admin, err := cert.NewAdmin(s, "Argus Admin")
	if err != nil {
		return nil, err
	}
	return newBackend(admin, admin.CACert(), s, opts), nil
}

// NewSubordinate creates a sub-backend (e.g. one building's server in the
// §II-A hierarchy): its admin key is certified by this backend's admin, and
// the credentials it issues carry the CA chain, so devices holding the root
// anchor verify them without knowing the sub-backend. Registries, policies
// and secret groups are per-sub-backend.
func (b *Backend) NewSubordinate(name string, opts ...Option) (*Backend, error) {
	sub, err := b.admin.NewSubordinate(name)
	if err != nil {
		return nil, err
	}
	return newBackend(sub, append([]byte(nil), b.anchor...), b.strength, opts), nil
}

// Admin exposes the signing authority (for test fixtures).
func (b *Backend) Admin() *cert.Admin { return b.admin }

// Strength returns the deployment's security strength.
func (b *Backend) Strength() suite.Strength { return b.strength }

// AdminPublic returns K_admin^pub, loaded onto every device.
func (b *Backend) AdminPublic() suite.PublicKey { return b.admin.Public() }

// CACert returns the ROOT trust-anchor certificate (DER) loaded onto
// devices — the hierarchy root, not necessarily this backend's own CA.
func (b *Backend) CACert() []byte { return append([]byte(nil), b.anchor...) }

// RegisterSubject registers a new subject with the given non-sensitive
// attributes and issues her credentials. Per Table I ("Add a subject"), the
// returned report is empty: a newcomer only contacts the backend once for her
// attribute profile; no object needs updating (overhead 1 at the backend,
// 0 on the ground).
func (b *Backend) RegisterSubject(name string, attrs attr.Set) (cert.ID, UpdateReport, error) {
	ids, err := b.RegisterSubjects([]SubjectSpec{{Name: name, Attrs: attrs}}, 1)
	if err != nil {
		return cert.ID{}, UpdateReport{}, err
	}
	return ids[0], UpdateReport{}, nil
}

// RegisterObject registers a new object at the given level. Overhead: only
// the new object itself is provisioned.
func (b *Backend) RegisterObject(name string, level Level, attrs attr.Set, functions []string) (cert.ID, UpdateReport, error) {
	ids, err := b.RegisterObjects([]ObjectSpec{{Name: name, Level: level, Attrs: attrs, Functions: functions}}, 1)
	if err != nil {
		return cert.ID{}, UpdateReport{}, err
	}
	return ids[0], UpdateReport{NotifiedObjects: ids[:1]}, nil
}

// Subject returns the record for a registered subject.
func (b *Backend) Subject(id cert.ID) (*SubjectRecord, error) {
	s, ok := b.subjects[id]
	if !ok {
		return nil, fmt.Errorf("%w: subject %v", ErrNotFound, id)
	}
	return s, nil
}

// Object returns the record for a registered object.
func (b *Backend) Object(id cert.ID) (*ObjectRecord, error) {
	o, ok := b.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: object %v", ErrNotFound, id)
	}
	return o, nil
}

// Objects returns all registered object IDs in stable order.
func (b *Backend) Objects() []cert.ID {
	ids := make([]cert.ID, 0, len(b.objects))
	for id := range b.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// AddPolicy installs a Level 2 policy and recompiles the PROF variants of the
// β objects it governs. The report lists those objects (§VIII: "to add/remove
// an object/policy, mostly just ... the objects mentioned in that policy
// should be updated, thus the overhead is 1 or β").
func (b *Backend) AddPolicy(subjectPred, objectPred *attr.Predicate, rights []string) (uint64, UpdateReport, error) {
	if subjectPred == nil || objectPred == nil {
		return 0, UpdateReport{}, fmt.Errorf("%w: policy predicates required", ErrBadPredicate)
	}
	p := &Policy{
		ID:      b.nextPol,
		Subject: subjectPred,
		Object:  objectPred,
		Rights:  append([]string(nil), rights...),
	}
	b.nextPol++
	b.policies[p.ID] = p
	rep := UpdateReport{NotifiedObjects: b.governedBy(p)}
	b.countChurn("add_policy", rep)
	return p.ID, rep, nil
}

// RemovePolicy deletes a policy; the report lists the objects whose variants
// change (overhead β).
func (b *Backend) RemovePolicy(id uint64) (UpdateReport, error) {
	p, ok := b.policies[id]
	if !ok {
		return UpdateReport{}, fmt.Errorf("%w: policy %d", ErrNotFound, id)
	}
	affected := b.governedBy(p)
	delete(b.policies, id)
	rep := UpdateReport{NotifiedObjects: affected}
	b.countChurn("remove_policy", rep)
	return rep, nil
}

// Policies returns all installed policies sorted by ID.
func (b *Backend) Policies() []*Policy {
	out := make([]*Policy, 0, len(b.policies))
	for _, p := range b.policies {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// governedBy returns the objects matched by a policy's object predicate, in
// stable order.
func (b *Backend) governedBy(p *Policy) []cert.ID {
	var ids []cert.ID
	for id, o := range b.objects {
		if o.Level != L1 && p.Object.Eval(o.Attrs) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// AccessibleObjects returns the IDs of the Level 2/3 objects a subject can
// currently discover under at least one policy — the N of §VIII.
func (b *Backend) AccessibleObjects(subject cert.ID) ([]cert.ID, error) {
	s, err := b.Subject(subject)
	if err != nil {
		return nil, err
	}
	seen := make(map[cert.ID]bool)
	for _, p := range b.policies {
		if !p.Subject.Eval(s.Attrs) {
			continue
		}
		for _, oid := range b.governedBy(p) {
			seen[oid] = true
		}
	}
	ids := make([]cert.ID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids, nil
}

// mergeSortedIDs unions k ascending cert.ID lists into one ascending,
// deduplicated list. The one-list case (an entity in a single secret group —
// the norm) is a plain clone.
func mergeSortedIDs(lists [][]cert.ID) []cert.ID {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return append([]cert.ID(nil), lists[0]...)
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]cert.ID, 0, n)
	idx := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best < 0 || l[idx[i]].Less(lists[best][idx[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		next := lists[best][idx[best]]
		idx[best]++
		if len(out) == 0 || out[len(out)-1] != next {
			out = append(out, next)
		}
	}
}

// RevokeSubject removes a subject from the system. Per Table I ("Rmv a
// subject": overhead N), the backend notifies every object the subject could
// access to blacklist her ID, and rotates the keys of every secret group she
// belonged to (γ−1 fellows each, §VIII "Level 1 & 3 Scalability").
func (b *Backend) RevokeSubject(id cert.ID) (UpdateReport, error) {
	s, err := b.Subject(id)
	if err != nil {
		return UpdateReport{}, err
	}
	if s.Revoked {
		return UpdateReport{}, fmt.Errorf("%w: subject %v already revoked", ErrRevoked, id)
	}
	accessible, err := b.AccessibleObjects(id)
	if err != nil {
		return UpdateReport{}, err
	}
	var report UpdateReport
	for _, oid := range accessible {
		b.objects[oid].revoked[id] = true
		report.NotifiedObjects = append(report.NotifiedObjects, oid)
	}
	// Rotate the subject's secret groups. RemoveMember returns each group's
	// surviving fellows already sorted, so the union is a k-way sorted merge
	// (k = the subject's group count, usually 1) — no set, no re-sort: with
	// bulk revocation the per-removal re-sort of γ fellows was the single
	// hottest non-crypto path in the churn profile.
	var rekeyedLists [][]cert.ID
	for _, gid := range b.Groups.GroupsOf(id) {
		rekeyed, err := b.Groups.RemoveMember(gid, id)
		if err != nil {
			return UpdateReport{}, err
		}
		if len(rekeyed) > 0 {
			rekeyedLists = append(rekeyedLists, rekeyed)
		}
	}
	report.NotifiedSubjects = mergeSortedIDs(rekeyedLists)
	s.Revoked = true
	b.countChurn("revoke_subject", report)
	return report, nil
}

// UpdateSubjectAttrs changes a subject's non-sensitive attributes —
// promotion, demotion or rotation (§II-C item 4). The subject needs a fresh
// PROF from the backend; objects evaluate predicates against the presented
// PROF at discovery time, so none of them needs updating UNLESS the change
// shrinks her access: objects she could previously discover but no longer
// matches must blacklist her old PROF by ID until it expires. The report
// lists exactly those objects.
func (b *Backend) UpdateSubjectAttrs(id cert.ID, attrs attr.Set) (UpdateReport, error) {
	s, err := b.Subject(id)
	if err != nil {
		return UpdateReport{}, err
	}
	if s.Revoked {
		return UpdateReport{}, fmt.Errorf("%w: subject %v", ErrRevoked, id)
	}
	before, err := b.AccessibleObjects(id)
	if err != nil {
		return UpdateReport{}, err
	}
	s.Attrs = attrs.Clone()
	after, err := b.AccessibleObjects(id)
	if err != nil {
		return UpdateReport{}, err
	}
	stillVisible := make(map[cert.ID]bool, len(after))
	for _, oid := range after {
		stillVisible[oid] = true
	}
	var report UpdateReport
	for _, oid := range before {
		if !stillVisible[oid] {
			// The old signed PROF would still match this object's predicate;
			// blacklist the subject until the PROF expires and she presents
			// the re-issued one.
			b.objects[oid].revoked[id] = true
			report.NotifiedObjects = append(report.NotifiedObjects, oid)
		}
	}
	b.countChurn("update_subject_attrs", report)
	return report, nil
}

// Reinstate clears a subject's ID from an object's blacklist (used after the
// subject provably holds a fresh PROF, e.g. post-demotion re-issue).
func (b *Backend) Reinstate(object, subject cert.ID) error {
	o, err := b.Object(object)
	if err != nil {
		return err
	}
	delete(o.revoked, subject)
	return nil
}

// UpdateObjectAttrs changes an object's non-sensitive attributes (device
// reconfiguration or relocation). Only the object itself needs re-provision:
// its PROF variants are recompiled from the policies its new attributes
// match (overhead 1, §VIII).
func (b *Backend) UpdateObjectAttrs(id cert.ID, attrs attr.Set) (UpdateReport, error) {
	o, err := b.Object(id)
	if err != nil {
		return UpdateReport{}, err
	}
	o.Attrs = attrs.Clone()
	rep := UpdateReport{NotifiedObjects: []cert.ID{id}}
	b.countChurn("update_object_attrs", rep)
	return rep, nil
}

// RemoveObject decommissions an object (overhead 1).
func (b *Backend) RemoveObject(id cert.ID) (UpdateReport, error) {
	if _, ok := b.objects[id]; !ok {
		return UpdateReport{}, fmt.Errorf("%w: object %v", ErrNotFound, id)
	}
	delete(b.objects, id)
	rep := UpdateReport{NotifiedObjects: []cert.ID{id}}
	b.countChurn("remove_object", rep)
	return rep, nil
}

// AddCovertService puts an object into a secret group and defines the covert
// functions it offers fellows of that group (§IV-A Level 3: the object gets
// one PROF variant per secret group).
func (b *Backend) AddCovertService(object cert.ID, gid groups.ID, functions []string) error {
	o, err := b.Object(object)
	if err != nil {
		return err
	}
	if o.Level != L3 {
		return fmt.Errorf("%w: %s is %v, not Level 3", ErrNotCovert, o.Name, o.Level)
	}
	if err := b.Groups.AddMember(gid, object, cert.RoleObject); err != nil {
		return err
	}
	o.covert[gid] = append([]string(nil), functions...)
	return nil
}

// AddSubjectToGroup puts a subject into a secret group (her sensitive
// attribute was verified out of band, e.g. student S showing his diagnosis,
// §IV-A).
func (b *Backend) AddSubjectToGroup(subject cert.ID, gid groups.ID) error {
	if _, err := b.Subject(subject); err != nil {
		return err
	}
	return b.Groups.AddMember(gid, subject, cert.RoleSubject)
}

// RevokedFor returns the revocation entries an object must enforce.
func (b *Backend) RevokedFor(object cert.ID) ([]cert.ID, error) {
	o, err := b.Object(object)
	if err != nil {
		return nil, err
	}
	ids := make([]cert.ID, 0, len(o.revoked))
	for id := range o.revoked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids, nil
}

// ProfLifetime is how long a PROF stays valid from its issue.
const ProfLifetime = 365 * 24 * time.Hour

// profValidity returns the profile validity anchor from the backend's
// clock (WithClock; time.Now by default).
func (b *Backend) profValidity() (issued, expires time.Time) {
	now := time.Now
	if b.now != nil {
		now = b.now
	}
	n := now().Truncate(time.Second).UTC()
	return n, n.Add(ProfLifetime)
}
