package backendsvc

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"argus/internal/backend"
	"argus/internal/obs"
	"argus/internal/suite"
)

// ErrUnauthorized marks a missing or wrong bearer key (tenant or admin).
var ErrUnauthorized = errors.New("backendsvc: unauthorized")

// ErrNoTenant marks an unknown tenant namespace.
var ErrNoTenant = errors.New("backendsvc: no such tenant")

// ErrBadRequest marks a /v1 request body that is malformed or carries a field
// the endpoint does not take.
var ErrBadRequest = errors.New("backendsvc: bad request")

// tenantMeta is one row of tenants.json — the store's directory of
// namespaces. Auth keys live here (0600) alongside the snapshots, which
// already hold every private key the enterprise owns.
type tenantMeta struct {
	Name     string `json:"name"`
	AuthKey  string `json:"auth_key"`
	Strength int    `json:"strength"`
}

// Store is the daemon's root: a directory of tenants, each in its own
// subdirectory (dir/<tenant>/{snap.bin,wal.log}) with its metadata in
// dir/tenants.json.
type Store struct {
	dir string
	reg *obs.Registry

	mu      sync.Mutex
	tenants map[string]*Tenant
	metas   map[string]tenantMeta
}

// OpenStore opens (creating if needed) a tenant store rooted at dir and
// loads every tenant listed in tenants.json, replaying their WALs.
func OpenStore(dir string, reg *obs.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		reg:     reg,
		tenants: make(map[string]*Tenant),
		metas:   make(map[string]tenantMeta),
	}
	blob, err := os.ReadFile(s.indexPath())
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	var metas []tenantMeta
	if err := json.Unmarshal(blob, &metas); err != nil {
		return nil, fmt.Errorf("backendsvc: tenants.json: %w", err)
	}
	for _, m := range metas {
		t, err := s.open(m)
		if err != nil {
			return nil, fmt.Errorf("backendsvc: tenant %q: %w", m.Name, err)
		}
		s.tenants[m.Name] = t
		s.metas[m.Name] = m
	}
	s.gauge()
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "tenants.json") }

func (s *Store) open(m tenantMeta) (*Tenant, error) {
	return openTenant(m.Name, m.AuthKey, filepath.Join(s.dir, m.Name), suite.Strength(m.Strength), s.reg,
		backend.WithTelemetry(s.reg))
}

func (s *Store) gauge() {
	if s.reg != nil {
		s.reg.Gauge(obs.MBackendsvcTenants, "Tenant namespaces loaded.").Set(int64(len(s.tenants)))
	}
}

// saveIndexLocked rewrites tenants.json atomically. Caller holds s.mu.
func (s *Store) saveIndexLocked() error {
	metas := make([]tenantMeta, 0, len(s.metas))
	for _, m := range s.metas {
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name })
	blob, err := json.MarshalIndent(metas, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(s.indexPath(), blob)
}

// validTenantName keeps namespace names safe as path components.
func validTenantName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		ok := c == '-' || c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Create provisions a new tenant namespace with a fresh random bearer key
// and a fresh enterprise backend, persisted immediately.
func (s *Store) Create(name string, strength suite.Strength) (*Tenant, error) {
	if !validTenantName(name) {
		return nil, fmt.Errorf("%w: invalid tenant name %q", backend.ErrBadPredicate, name)
	}
	if !strength.Valid() {
		return nil, fmt.Errorf("%w: invalid strength %d", backend.ErrBadPredicate, int(strength))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return nil, fmt.Errorf("%w: tenant %q", backend.ErrDuplicate, name)
	}
	var raw [24]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, err
	}
	m := tenantMeta{Name: name, AuthKey: hex.EncodeToString(raw[:]), Strength: int(strength)}
	t, err := s.open(m)
	if err != nil {
		return nil, err
	}
	s.tenants[name] = t
	s.metas[name] = m
	if err := s.saveIndexLocked(); err != nil {
		delete(s.tenants, name)
		delete(s.metas, name)
		t.Close()
		return nil, err
	}
	s.gauge()
	return t, nil
}

// Tenant returns a loaded tenant by name.
func (s *Store) Tenant(name string) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTenant, name)
	}
	return t, nil
}

// Auth returns the tenant iff key matches its bearer key.
func (s *Store) Auth(name, key string) (*Tenant, error) {
	t, err := s.Tenant(name)
	if err != nil {
		return nil, err
	}
	if key == "" || key != t.AuthKey() {
		return nil, fmt.Errorf("%w: tenant %q", ErrUnauthorized, name)
	}
	return t, nil
}

// Names lists loaded tenants in stable order.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close compacts and closes every tenant, keeping the first error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, name := range s.namesLocked() {
		if err := s.tenants[name].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Store) namesLocked() []string {
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
