package backendsvc

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/obs"
	"argus/internal/suite"
)

// The versioned HTTP surface. Conventions:
//
//   - Every route lives under /v1/; breaking changes get /v2/, never a
//     silent mutation of /v1/ semantics.
//   - The tenant namespace rides in the X-Argus-Tenant header; the tenant's
//     bearer key in Authorization: Bearer <key>. GET /v1/anchor is the one
//     tenant route that skips the key: the trust anchor is public material.
//   - Tenant administration (create/list) authenticates against the
//     server's admin key instead.
//   - Errors return {"error": <message>, "code": <symbol>}; the code maps
//     1:1 onto the backend sentinel errors so internal/backendclient can
//     reconstruct errors.Is-compatible errors across the wire.
//   - Provision bundles travel as one base64 blob of the binary codec
//     (backend.EncodeSubjectProvision) inside the JSON envelope — the
//     bundle is mostly DER and key material with an exact binary form
//     already, and one codec keeps in-process and over-the-wire
//     deployments byte-identical.

// TenantHeader carries the tenant namespace.
const TenantHeader = "X-Argus-Tenant"

// errorBody is the wire form of a failed request.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// ErrorCode maps an error to its wire symbol and HTTP status.
func ErrorCode(err error) (code string, status int) {
	switch {
	case errors.Is(err, backend.ErrNotFound):
		return "not_found", http.StatusNotFound
	case errors.Is(err, ErrNoTenant):
		return "no_tenant", http.StatusNotFound
	case errors.Is(err, backend.ErrDuplicate):
		return "duplicate", http.StatusConflict
	case errors.Is(err, backend.ErrRevoked):
		return "revoked", http.StatusGone
	case errors.Is(err, backend.ErrBadPredicate):
		return "bad_predicate", http.StatusBadRequest
	case errors.Is(err, ErrBadRequest):
		return "bad_request", http.StatusBadRequest
	case errors.Is(err, backend.ErrInvalidLevel):
		return "invalid_level", http.StatusBadRequest
	case errors.Is(err, backend.ErrNotCovert):
		return "not_covert", http.StatusBadRequest
	case errors.Is(err, ErrUnauthorized):
		return "unauthorized", http.StatusUnauthorized
	case errors.Is(err, backend.ErrCorruptState):
		return "corrupt", http.StatusInternalServerError
	}
	return "internal", http.StatusInternalServerError
}

// SentinelFor is the inverse of ErrorCode: the sentinel a wire code stands
// for (nil for "internal"). Shared with internal/backendclient so the
// mapping cannot drift between the two directions.
func SentinelFor(code string) error {
	switch code {
	case "not_found":
		return backend.ErrNotFound
	case "no_tenant":
		return ErrNoTenant
	case "duplicate":
		return backend.ErrDuplicate
	case "revoked":
		return backend.ErrRevoked
	case "bad_predicate":
		return backend.ErrBadPredicate
	case "bad_request":
		return ErrBadRequest
	case "invalid_level":
		return backend.ErrInvalidLevel
	case "not_covert":
		return backend.ErrNotCovert
	case "unauthorized":
		return ErrUnauthorized
	case "corrupt":
		return backend.ErrCorruptState
	}
	return nil
}

// reportJSON is the wire form of a backend.UpdateReport.
type reportJSON struct {
	NotifiedObjects  []string `json:"notified_objects,omitempty"`
	NotifiedSubjects []string `json:"notified_subjects,omitempty"`
	Total            int      `json:"total"`
}

func toReportJSON(rep backend.UpdateReport) reportJSON {
	out := reportJSON{Total: rep.Total()}
	for _, id := range rep.NotifiedObjects {
		out.NotifiedObjects = append(out.NotifiedObjects, id.String())
	}
	for _, id := range rep.NotifiedSubjects {
		out.NotifiedSubjects = append(out.NotifiedSubjects, id.String())
	}
	return out
}

// FromReportJSON reconstructs an UpdateReport (client side).
func (r reportJSON) toReport() (backend.UpdateReport, error) {
	var rep backend.UpdateReport
	for _, s := range r.NotifiedObjects {
		id, err := ParseID(s)
		if err != nil {
			return rep, err
		}
		rep.NotifiedObjects = append(rep.NotifiedObjects, id)
	}
	for _, s := range r.NotifiedSubjects {
		id, err := ParseID(s)
		if err != nil {
			return rep, err
		}
		rep.NotifiedSubjects = append(rep.NotifiedSubjects, id)
	}
	return rep, nil
}

// ParseID parses the hex form of a cert.ID.
func ParseID(s string) (cert.ID, error) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(cert.ID{}) {
		return cert.ID{}, fmt.Errorf("%w: bad entity id %q", backend.ErrBadPredicate, s)
	}
	var id cert.ID
	copy(id[:], raw)
	return id, nil
}

// Server serves the /v1 API over a tenant store.
type Server struct {
	store    *Store
	adminKey string
	reg      *obs.Registry
	now      func() time.Time
}

// NewServer builds a Server. adminKey guards tenant administration; an
// empty key disables those routes entirely (tenants must pre-exist).
func NewServer(store *Store, adminKey string, reg *obs.Registry) *Server {
	return &Server{store: store, adminKey: adminKey, reg: reg, now: time.Now}
}

// Handler returns the /v1 route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	// Tenant administration (server admin key).
	mux.HandleFunc("POST /v1/tenants", s.instrument("/v1/tenants", s.handleCreateTenant))
	mux.HandleFunc("GET /v1/tenants", s.instrument("/v1/tenants", s.handleListTenants))

	// Public per-tenant bootstrap material.
	mux.HandleFunc("GET /v1/anchor", s.instrument("/v1/anchor", s.tenantRoute(false, s.handleAnchor)))

	// Authenticated tenant surface.
	type route struct {
		pattern string
		h       func(*Tenant, http.ResponseWriter, *http.Request) error
	}
	for _, rt := range []route{
		{"POST /v1/subjects", s.handleRegisterSubject},
		{"POST /v1/objects", s.handleRegisterObject},
		{"GET /v1/subjects/{id}/provision", s.handleProvisionSubject},
		{"GET /v1/objects/{id}/provision", s.handleProvisionObject},
		{"POST /v1/subjects/{id}/revoke", s.handleRevokeSubject},
		{"PUT /v1/subjects/{id}/attrs", s.handleUpdateSubjectAttrs},
		{"POST /v1/policies", s.handleAddPolicy},
		{"DELETE /v1/policies/{id}", s.handleRemovePolicy},
		{"POST /v1/groups", s.handleCreateGroup},
		{"POST /v1/groups/{gid}/subjects", s.handleAddSubjectToGroup},
		{"POST /v1/groups/{gid}/covert", s.handleAddCovertService},
		{"GET /v1/fingerprint", s.handleFingerprint},
	} {
		pattern := rt.pattern
		h := rt.h
		path := strings.TrimPrefix(pattern, strings.Fields(pattern)[0]+" ")
		mux.HandleFunc(pattern, s.instrument(path, s.tenantRoute(true, h)))
	}
	return mux
}

// instrument wraps a handler with request counting and latency observation
// under the route pattern (never the raw path: bounded cardinality).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		if s.reg == nil {
			return
		}
		s.reg.Counter(obs.MBackendsvcRequests, "API requests, by route pattern and status code.",
			obs.L("route", route), obs.L("code", strconv.Itoa(sw.code))).Inc()
		s.reg.Histogram(obs.MBackendsvcLatency, "API request latency by route pattern.",
			obs.LatencyBuckets(), obs.L("route", route)).Observe(s.now().Sub(start).Seconds())
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	code, status := ErrorCode(err)
	if status == http.StatusUnauthorized && s.reg != nil {
		s.reg.Counter(obs.MBackendsvcAuthFail, "Requests rejected for a missing or wrong bearer key.").Inc()
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

func bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(h, prefix) {
		return ""
	}
	return strings.TrimPrefix(h, prefix)
}

// tenantRoute resolves the tenant named by the request header, checking its
// bearer key when authed is true.
func (s *Server) tenantRoute(authed bool, h func(*Tenant, http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.Header.Get(TenantHeader)
		if name == "" {
			s.writeError(w, fmt.Errorf("%w: missing %s header", ErrNoTenant, TenantHeader))
			return
		}
		var t *Tenant
		var err error
		if authed {
			t, err = s.store.Auth(name, bearer(r))
		} else {
			t, err = s.store.Tenant(name)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		if err := h(t, w, r); err != nil {
			s.writeError(w, err)
		}
	}
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: request body: %v", ErrBadRequest, err)
	}
	return nil
}

// --- tenant administration ---

func (s *Server) adminAuth(r *http.Request) error {
	if s.adminKey == "" || bearer(r) != s.adminKey {
		return fmt.Errorf("%w: tenant administration", ErrUnauthorized)
	}
	return nil
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	if err := s.adminAuth(r); err != nil {
		s.writeError(w, err)
		return
	}
	var body struct {
		Name     string `json:"name"`
		Strength int    `json:"strength"`
	}
	if err := decodeBody(r, &body); err != nil {
		s.writeError(w, err)
		return
	}
	if body.Strength == 0 {
		body.Strength = int(suite.S128)
	}
	t, err := s.store.Create(body.Name, suite.Strength(body.Strength))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{
		"name": t.Name(), "auth_key": t.AuthKey(),
	})
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	if err := s.adminAuth(r); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"tenants": s.store.Names()})
}

// --- tenant surface ---

func (s *Server) handleAnchor(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	ta, err := t.TrustAnchor(r.Context())
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"strength":  int(ta.Strength),
		"ca_cert":   base64.StdEncoding.EncodeToString(ta.CACert),
		"admin_pub": base64.StdEncoding.EncodeToString(ta.AdminPub),
	})
	return nil
}

func (s *Server) handleRegisterSubject(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	var body struct {
		Name  string `json:"name"`
		Attrs string `json:"attrs"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	attrs, err := attr.ParseSet(body.Attrs)
	if err != nil {
		return fmt.Errorf("%w: %v", backend.ErrBadPredicate, err)
	}
	id, rep, err := t.RegisterSubject(r.Context(), body.Name, attrs)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id.String(), "report": toReportJSON(rep)})
	return nil
}

func (s *Server) handleRegisterObject(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	var body struct {
		Name      string   `json:"name"`
		Level     int      `json:"level"`
		Attrs     string   `json:"attrs"`
		Functions []string `json:"functions"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	attrs, err := attr.ParseSet(body.Attrs)
	if err != nil {
		return fmt.Errorf("%w: %v", backend.ErrBadPredicate, err)
	}
	id, rep, err := t.RegisterObject(r.Context(), body.Name, backend.Level(body.Level), attrs, body.Functions)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id.String(), "report": toReportJSON(rep)})
	return nil
}

func (s *Server) handleProvisionSubject(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	id, err := ParseID(r.PathValue("id"))
	if err != nil {
		return err
	}
	p, err := t.ProvisionSubject(r.Context(), id)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"blob": base64.StdEncoding.EncodeToString(backend.EncodeSubjectProvision(p)),
	})
	return nil
}

func (s *Server) handleProvisionObject(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	id, err := ParseID(r.PathValue("id"))
	if err != nil {
		return err
	}
	p, err := t.ProvisionObject(r.Context(), id)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"blob": base64.StdEncoding.EncodeToString(backend.EncodeObjectProvision(p)),
	})
	return nil
}

func (s *Server) handleRevokeSubject(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	id, err := ParseID(r.PathValue("id"))
	if err != nil {
		return err
	}
	rep, err := t.RevokeSubject(r.Context(), id)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"report": toReportJSON(rep)})
	return nil
}

func (s *Server) handleUpdateSubjectAttrs(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	id, err := ParseID(r.PathValue("id"))
	if err != nil {
		return err
	}
	var body struct {
		Attrs string `json:"attrs"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	attrs, err := attr.ParseSet(body.Attrs)
	if err != nil {
		return fmt.Errorf("%w: %v", backend.ErrBadPredicate, err)
	}
	rep, err := t.UpdateSubjectAttrs(r.Context(), id, attrs)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"report": toReportJSON(rep)})
	return nil
}

func (s *Server) handleAddPolicy(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	var body struct {
		Subject string   `json:"subject"`
		Object  string   `json:"object"`
		Rights  []string `json:"rights"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	subjPred, err := attr.Parse(body.Subject)
	if err != nil {
		return fmt.Errorf("%w: subject predicate: %v", backend.ErrBadPredicate, err)
	}
	objPred, err := attr.Parse(body.Object)
	if err != nil {
		return fmt.Errorf("%w: object predicate: %v", backend.ErrBadPredicate, err)
	}
	id, rep, err := t.AddPolicy(r.Context(), subjPred, objPred, body.Rights)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id, "report": toReportJSON(rep)})
	return nil
}

func (s *Server) handleRemovePolicy(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return fmt.Errorf("%w: bad policy id", backend.ErrBadPredicate)
	}
	rep, err := t.RemovePolicy(r.Context(), id)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"report": toReportJSON(rep)})
	return nil
}

func (s *Server) handleCreateGroup(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	var body struct {
		Description string `json:"description"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	gid, err := t.CreateGroup(r.Context(), body.Description)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": uint64(gid)})
	return nil
}

func parseGroupID(r *http.Request) (groups.ID, error) {
	gid, err := strconv.ParseUint(r.PathValue("gid"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad group id", backend.ErrBadPredicate)
	}
	return groups.ID(gid), nil
}

func (s *Server) handleAddSubjectToGroup(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	gid, err := parseGroupID(r)
	if err != nil {
		return err
	}
	var body struct {
		Subject string `json:"subject"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	id, err := ParseID(body.Subject)
	if err != nil {
		return err
	}
	if err := t.AddSubjectToGroup(r.Context(), id, gid); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	return nil
}

func (s *Server) handleAddCovertService(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	gid, err := parseGroupID(r)
	if err != nil {
		return err
	}
	var body struct {
		Object    string   `json:"object"`
		Functions []string `json:"functions"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	id, err := ParseID(body.Object)
	if err != nil {
		return err
	}
	if err := t.AddCovertService(r.Context(), id, gid, body.Functions); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	return nil
}

func (s *Server) handleFingerprint(t *Tenant, w http.ResponseWriter, r *http.Request) error {
	fp, err := t.StateFingerprint(r.Context())
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]string{"fingerprint": fp})
	return nil
}
