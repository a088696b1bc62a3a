package backendsvc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/enc"
	"argus/internal/groups"
	"argus/internal/obs"
	"argus/internal/suite"
)

// Snapshot file format: [u8 version][u64 lastSeq][backend snapshot blob].
// lastSeq is the WAL sequence of the last operation the snapshot includes;
// replay skips records at or below it, which is what makes the
// snapshot-then-truncate compaction crash-safe in every window.
const snapFileVersion = 1

// DefaultCompactBytes is the WAL size past which a tenant compacts
// opportunistically after an append.
const DefaultCompactBytes = 4 << 20

// Tenant is one enterprise namespace: an isolated backend, its effect log
// and snapshot, and the bearer key that guards its API surface. Tenant
// implements backend.Service — mutations apply in memory, then the effect
// record is appended and fsynced before the call returns, so every
// acknowledged operation survives a crash (replayed on open, byte-identical
// state). All methods are safe for concurrent use.
type Tenant struct {
	name    string
	authKey string

	mu           sync.Mutex
	b            *backend.Backend
	wal          *WAL
	dir          string
	compactBytes int64

	reg *obs.Registry
}

// Name returns the tenant's namespace name.
func (t *Tenant) Name() string { return t.name }

// AuthKey returns the tenant's bearer key.
func (t *Tenant) AuthKey() string { return t.authKey }

// Backend exposes the underlying backend for in-process embedders (the
// daemon's gateway needs the admin key to sign notifications). Callers must
// not mutate through it — mutations would bypass the effect log.
func (t *Tenant) Backend() *backend.Backend {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.b
}

func (t *Tenant) snapPath() string { return filepath.Join(t.dir, "snap.bin") }
func (t *Tenant) walPath() string  { return filepath.Join(t.dir, "wal.log") }

// openTenant loads (or initializes) a tenant under dir: restore the
// snapshot if present, then replay every WAL record past the snapshot's
// sequence. Options apply to the restored backend (clock, telemetry).
func openTenant(name, authKey, dir string, strength suite.Strength, reg *obs.Registry, opts ...backend.Option) (*Tenant, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	t := &Tenant{name: name, authKey: authKey, dir: dir, compactBytes: DefaultCompactBytes, reg: reg}

	var lastSeq uint64
	snapBlob, err := os.ReadFile(t.snapPath())
	switch {
	case err == nil:
		r := enc.NewReader(snapBlob)
		if v := r.U8(); v != snapFileVersion && r.Err() == nil {
			return nil, fmt.Errorf("%w: unsupported snapshot file version %d", backend.ErrCorruptState, v)
		}
		lastSeq = r.U64()
		blob := r.Bytes32()
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: snapshot file: %v", backend.ErrCorruptState, err)
		}
		if t.b, err = backend.Restore(blob, opts...); err != nil {
			return nil, err
		}
	case os.IsNotExist(err):
		if t.b, err = backend.New(strength, opts...); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	wal, recs, err := OpenWAL(t.walPath())
	if err != nil {
		return nil, err
	}
	t.wal = wal
	t.wal.SetSeq(lastSeq)
	replayed := 0
	for _, rec := range recs {
		if rec.Seq <= lastSeq {
			continue // already inside the snapshot (compaction crash window)
		}
		op, err := applyRecord(t.b, rec.Payload)
		if err != nil {
			wal.Close()
			return nil, err
		}
		replayed++
		t.count(obs.MBackendsvcWALReplays, "WAL records replayed at open, by op.", "op", op)
	}
	_ = replayed
	// A fresh tenant persists its genesis state immediately: the admin key
	// is random, so losing it would orphan every credential ever issued.
	if snapBlob == nil {
		if err := t.compactLocked(); err != nil {
			wal.Close()
			return nil, err
		}
	}
	return t, nil
}

func (t *Tenant) count(name, help, lk, lv string) {
	if t.reg == nil {
		return
	}
	t.reg.Counter(name, help, obs.L("tenant", t.name), obs.L(lk, lv)).Inc()
}

// logEffect appends one effect record and fsyncs. Called with t.mu held,
// after the in-memory mutation succeeded. An append failure is fatal for
// the tenant's durability story, so it surfaces as the operation's error —
// the state may be ahead of the log, and the caller should treat the
// tenant as failed.
func (t *Tenant) logEffect(payload []byte, op string) error {
	if _, err := t.wal.Append(payload); err != nil {
		return err
	}
	t.count(obs.MBackendsvcWALAppends, "Effect records appended to the WAL, by op.", "op", op)
	if t.wal.Size() >= t.compactBytes {
		return t.compactLocked()
	}
	return nil
}

// compactLocked snapshots the backend (with the WAL's current sequence in
// the header) atomically, then truncates the log. Crash windows:
//
//	before the rename  → old snapshot + full log: full replay, same state.
//	after the rename,
//	before truncation  → new snapshot + full log: replay skips seq ≤ header.
//	after truncation   → new snapshot + empty log.
//
// All three recover to the same fingerprint; the crash tests walk each one.
func (t *Tenant) compactLocked() error {
	w := enc.NewWriter(4096)
	w.U8(snapFileVersion)
	w.U64(t.wal.Seq())
	w.Bytes32(t.b.Snapshot())
	if err := writeFileAtomic(t.snapPath(), w.Bytes()); err != nil {
		return err
	}
	if err := t.wal.Reset(); err != nil {
		return err
	}
	if t.reg != nil {
		t.reg.Counter(obs.MBackendsvcCompactions,
			"Snapshot compactions (WAL truncated into a fresh snapshot).",
			obs.L("tenant", t.name)).Inc()
	}
	return nil
}

// Compact forces a snapshot compaction.
func (t *Tenant) Compact() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.compactLocked()
}

// Close compacts and releases the WAL file.
func (t *Tenant) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.compactLocked(); err != nil {
		t.wal.Close()
		return err
	}
	return t.wal.Close()
}

// --- backend.Service ---

func (t *Tenant) TrustAnchor(context.Context) (backend.TrustAnchor, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return backend.TrustAnchor{
		Strength: t.b.Strength(),
		CACert:   t.b.CACert(),
		AdminPub: t.b.AdminPublic().Bytes(),
	}, nil
}

func (t *Tenant) RegisterSubject(_ context.Context, name string, attrs attr.Set) (cert.ID, backend.UpdateReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, rep, err := t.b.RegisterSubject(name, attrs)
	if err != nil {
		return cert.ID{}, backend.UpdateReport{}, err
	}
	payload, err := encodeRegister(opRegisterSubject, t.b, id, name, 0, attrs, nil)
	if err != nil {
		return cert.ID{}, backend.UpdateReport{}, err
	}
	return id, rep, t.logEffect(payload, "register_subject")
}

func (t *Tenant) RegisterObject(_ context.Context, name string, level backend.Level, attrs attr.Set, functions []string) (cert.ID, backend.UpdateReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, rep, err := t.b.RegisterObject(name, level, attrs, functions)
	if err != nil {
		return cert.ID{}, backend.UpdateReport{}, err
	}
	payload, err := encodeRegister(opRegisterObject, t.b, id, name, level, attrs, functions)
	if err != nil {
		return cert.ID{}, backend.UpdateReport{}, err
	}
	return id, rep, t.logEffect(payload, "register_object")
}

// ProvisionSubject logs an effect record when the provision drew the
// subject's cover-up membership — its first, for a subject in no group — and
// only then: that draw is random, so a replay could not repeat it.
func (t *Tenant) ProvisionSubject(_ context.Context, id cert.ID) (*backend.SubjectProvision, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	coverUps := t.b.Groups.CoverUps()
	prov, err := t.b.ProvisionSubject(id)
	if err != nil || t.b.Groups.CoverUps() == coverUps {
		return prov, err
	}
	return prov, t.logEffect(encodeProvisionSubject(t.b, id), "provision_subject")
}

func (t *Tenant) ProvisionObject(_ context.Context, id cert.ID) (*backend.ObjectProvision, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.b.ProvisionObject(id)
}

func (t *Tenant) AddPolicy(_ context.Context, subjectPred, objectPred *attr.Predicate, rights []string) (uint64, backend.UpdateReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, rep, err := t.b.AddPolicy(subjectPred, objectPred, rights)
	if err != nil {
		return 0, backend.UpdateReport{}, err
	}
	return id, rep, t.logEffect(encodeAddPolicy(subjectPred, objectPred, rights), "add_policy")
}

func (t *Tenant) RemovePolicy(_ context.Context, id uint64) (backend.UpdateReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep, err := t.b.RemovePolicy(id)
	if err != nil {
		return backend.UpdateReport{}, err
	}
	return rep, t.logEffect(encodeRemovePolicy(id), "remove_policy")
}

func (t *Tenant) RevokeSubject(_ context.Context, id cert.ID) (backend.UpdateReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep, err := t.b.RevokeSubject(id)
	if err != nil {
		return backend.UpdateReport{}, err
	}
	return rep, t.logEffect(encodeRevokeSubject(t.b, id), "revoke_subject")
}

func (t *Tenant) UpdateSubjectAttrs(_ context.Context, id cert.ID, attrs attr.Set) (backend.UpdateReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep, err := t.b.UpdateSubjectAttrs(id, attrs)
	if err != nil {
		return backend.UpdateReport{}, err
	}
	return rep, t.logEffect(encodeUpdateSubjectAttrs(id, attrs), "update_subject_attrs")
}

func (t *Tenant) CreateGroup(_ context.Context, description string) (groups.ID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	g, err := t.b.Groups.CreateGroup(description)
	if err != nil {
		return 0, err
	}
	return g.ID(), t.logEffect(encodeCreateGroup(t.b, description), "create_group")
}

func (t *Tenant) AddSubjectToGroup(_ context.Context, subject cert.ID, gid groups.ID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.b.AddSubjectToGroup(subject, gid); err != nil {
		return err
	}
	return t.logEffect(encodeAddSubjectToGroup(t.b, subject, gid), "add_subject_to_group")
}

func (t *Tenant) AddCovertService(_ context.Context, object cert.ID, gid groups.ID, functions []string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.b.AddCovertService(object, gid, functions); err != nil {
		return err
	}
	return t.logEffect(encodeAddCovertService(t.b, object, gid, functions), "add_covert_service")
}

func (t *Tenant) StateFingerprint(context.Context) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.b.StateFingerprint(), nil
}

var _ backend.Service = (*Tenant)(nil)
