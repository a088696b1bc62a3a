package backend

import (
	"fmt"
	"sync"
	"sync/atomic"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/suite"
)

// Registration and batch provisioning. Bootstrapping a §VIII-scale crowd
// (10³ entities) is dominated by ECDSA key generation and certificate
// signing — embarrassingly parallel work. These entry points fan exactly that
// work across a worker pool while keeping everything observable
// deterministic (a single RegisterSubject or RegisterObject is a batch of
// one on one worker):
//
//   - identifiers and certificate serials are assigned serially in request
//     order before any worker starts;
//   - workers write only to their own index, and results merge by index;
//   - all signature and certificate encodings are fixed-size (see
//     suite.SigningKey.Sign and cert.createSizedCert), so the provisioned
//     bundles are byte-structurally identical whatever the worker count —
//     key material differs (it is random either way), wire sizes and
//     therefore fixed-seed simulation transcripts do not.
//
// The Backend itself stays single-threaded: shared maps are only touched
// before the fan-out and after the merge.

// SubjectSpec describes one subject in a batch registration.
type SubjectSpec struct {
	Name  string
	Attrs attr.Set
}

// ObjectSpec describes one object in a batch registration.
type ObjectSpec struct {
	Name      string
	Level     Level
	Attrs     attr.Set
	Functions []string
}

// RegisterSubjects registers the given subjects, running key generation and
// certificate issuance on up to `workers` goroutines (workers <= 1 is fully
// sequential). IDs return in spec order.
func (b *Backend) RegisterSubjects(specs []SubjectSpec, workers int) ([]cert.ID, error) {
	ids, err := b.registerBatch(len(specs), workers, cert.RoleSubject,
		func(i int) string { return specs[i].Name })
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		b.subjects[ids[i]] = &SubjectRecord{ID: ids[i], Name: sp.Name, Attrs: sp.Attrs.Clone()}
		b.countChurn("register_subject", UpdateReport{})
	}
	return ids, nil
}

// RegisterObjects registers the given objects like RegisterSubjects. IDs
// return in spec order.
func (b *Backend) RegisterObjects(specs []ObjectSpec, workers int) ([]cert.ID, error) {
	for _, sp := range specs {
		if !sp.Level.Valid() {
			return nil, fmt.Errorf("%w: %d", ErrInvalidLevel, int(sp.Level))
		}
	}
	ids, err := b.registerBatch(len(specs), workers, cert.RoleObject,
		func(i int) string { return specs[i].Name })
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		b.addObject(ids[i], sp)
	}
	return ids, nil
}

// addObject stores a registered object's record and counts its churn: the
// object itself is the one ground entity provisioned.
func (b *Backend) addObject(id cert.ID, sp ObjectSpec) {
	b.objects[id] = &ObjectRecord{
		ID: id, Name: sp.Name, Level: sp.Level,
		Attrs:     sp.Attrs.Clone(),
		Functions: append([]string(nil), sp.Functions...),
		covert:    make(map[groups.ID][]string),
		revoked:   make(map[cert.ID]bool),
	}
	b.countChurn("register_object", UpdateReport{NotifiedObjects: []cert.ID{id}})
}

// registerBatch is the one issuing path: duplicate checks and ID derivation
// serially up front, then the batch's serials reserved in index order, then
// key generation and chain issuance per index on one pool. Keys and chains
// are stored only once every index has succeeded; callers add the records.
func (b *Backend) registerBatch(n, workers int, role cert.Role, name func(int) string) ([]cert.ID, error) {
	ids := make([]cert.ID, n)
	seen := make(map[cert.ID]bool, n)
	for i := 0; i < n; i++ {
		id := cert.IDFromName(name(i))
		if _, dup := b.keys[id]; dup || seen[id] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicate, name(i))
		}
		seen[id] = true
		ids[i] = id
	}
	first := b.admin.ReserveSerials(n)
	keys := make([]*suite.SigningKey, n)
	chains := make([][]byte, n)
	if err := forEachIndex(n, workers, func(i int) error {
		key, err := suite.GenerateSigningKey(b.strength, nil)
		if err != nil {
			return err
		}
		keys[i] = key
		chains[i], err = b.admin.IssueCertChainAt(first+int64(i), ids[i], name(i), role, key.Public())
		return err
	}); err != nil {
		return nil, err
	}
	for i, id := range ids {
		b.keys[id] = keys[i]
		b.certs[id] = chains[i]
	}
	return ids, nil
}

// ProvisionObjects assembles the credential bundles of many objects on up to
// `workers` goroutines, returning them in id order. Safe because
// ProvisionObject only reads shared backend state (records, policies, group
// memberships — object-side membership lookups create nothing) and profile
// signing uses the immutable admin key; each worker writes its own index.
func (b *Backend) ProvisionObjects(ids []cert.ID, workers int) ([]*ObjectProvision, error) {
	out := make([]*ObjectProvision, len(ids))
	if err := forEachIndex(len(ids), workers, func(i int) error {
		p, err := b.ProvisionObject(ids[i])
		out[i] = p
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// forEachIndex runs fn(0..n-1) on up to `workers` goroutines (inline, with
// no goroutine, for workers <= 1) and returns the first error by index
// order. Workers write only to distinct indices, so results merge
// deterministically.
func forEachIndex(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
