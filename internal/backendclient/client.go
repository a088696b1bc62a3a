// Package backendclient is the HTTP implementation of backend.Service: it
// speaks the /v1 surface of internal/backendsvc, so cmd/argus-node and the
// load harness can bootstrap from a live argus-backend daemon exactly as
// they would from an in-process backend (backend.Local) — same interface,
// same sentinel errors, same binary provision bundles.
package backendclient

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/backendsvc"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/suite"
)

// Client talks to one tenant namespace of an argus-backend daemon.
type Client struct {
	base    string // e.g. "http://127.0.0.1:8477"
	tenant  string
	authKey string
	hc      *http.Client
}

// Option customizes New.
type Option func(*Client)

// WithHTTPClient overrides the underlying *http.Client (timeouts, transport).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// New builds a client for the tenant namespace at base.
func New(base, tenant, authKey string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimSuffix(base, "/"),
		tenant:  tenant,
		authKey: authKey,
		hc:      http.DefaultClient,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// remoteError carries the server's message while unwrapping to the backend
// sentinel its wire code names, so errors.Is works identically on both
// sides of the wire.
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// do runs one request and decodes the response into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set(backendsvc.TenantHeader, c.tenant)
	if c.authKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.authKey)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("backendclient: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return fmt.Errorf("backendclient: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		var eb struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if json.Unmarshal(payload, &eb) == nil && eb.Error != "" {
			if sentinel := backendsvc.SentinelFor(eb.Code); sentinel != nil {
				return &remoteError{msg: eb.Error, sentinel: sentinel}
			}
			return fmt.Errorf("backendclient: %s %s: %s", method, path, eb.Error)
		}
		return fmt.Errorf("backendclient: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("backendclient: %s %s: decode: %w", method, path, err)
	}
	return nil
}

type wireReport struct {
	NotifiedObjects  []string `json:"notified_objects"`
	NotifiedSubjects []string `json:"notified_subjects"`
	Total            int      `json:"total"`
}

func (r wireReport) toReport() (backend.UpdateReport, error) {
	var rep backend.UpdateReport
	for _, s := range r.NotifiedObjects {
		id, err := backendsvc.ParseID(s)
		if err != nil {
			return rep, err
		}
		rep.NotifiedObjects = append(rep.NotifiedObjects, id)
	}
	for _, s := range r.NotifiedSubjects {
		id, err := backendsvc.ParseID(s)
		if err != nil {
			return rep, err
		}
		rep.NotifiedSubjects = append(rep.NotifiedSubjects, id)
	}
	return rep, nil
}

// --- backend.Service ---

func (c *Client) TrustAnchor(ctx context.Context) (backend.TrustAnchor, error) {
	var out struct {
		Strength int    `json:"strength"`
		CACert   string `json:"ca_cert"`
		AdminPub string `json:"admin_pub"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/anchor", nil, &out); err != nil {
		return backend.TrustAnchor{}, err
	}
	ca, err := base64.StdEncoding.DecodeString(out.CACert)
	if err != nil {
		return backend.TrustAnchor{}, fmt.Errorf("backendclient: anchor ca_cert: %w", err)
	}
	pub, err := base64.StdEncoding.DecodeString(out.AdminPub)
	if err != nil {
		return backend.TrustAnchor{}, fmt.Errorf("backendclient: anchor admin_pub: %w", err)
	}
	return backend.TrustAnchor{Strength: suite.Strength(out.Strength), CACert: ca, AdminPub: pub}, nil
}

func (c *Client) RegisterSubject(ctx context.Context, name string, attrs attr.Set) (cert.ID, backend.UpdateReport, error) {
	var out struct {
		ID     string     `json:"id"`
		Report wireReport `json:"report"`
	}
	body := map[string]string{"name": name, "attrs": attrs.String()}
	if err := c.do(ctx, http.MethodPost, "/v1/subjects", body, &out); err != nil {
		return cert.ID{}, backend.UpdateReport{}, err
	}
	id, err := backendsvc.ParseID(out.ID)
	if err != nil {
		return cert.ID{}, backend.UpdateReport{}, err
	}
	rep, err := out.Report.toReport()
	return id, rep, err
}

func (c *Client) RegisterObject(ctx context.Context, name string, level backend.Level, attrs attr.Set, functions []string) (cert.ID, backend.UpdateReport, error) {
	var out struct {
		ID     string     `json:"id"`
		Report wireReport `json:"report"`
	}
	body := map[string]any{
		"name": name, "level": int(level), "attrs": attrs.String(), "functions": functions,
	}
	if err := c.do(ctx, http.MethodPost, "/v1/objects", body, &out); err != nil {
		return cert.ID{}, backend.UpdateReport{}, err
	}
	id, err := backendsvc.ParseID(out.ID)
	if err != nil {
		return cert.ID{}, backend.UpdateReport{}, err
	}
	rep, err := out.Report.toReport()
	return id, rep, err
}

func (c *Client) provision(ctx context.Context, kind string, id cert.ID) ([]byte, error) {
	var out struct {
		Blob string `json:"blob"`
	}
	path := fmt.Sprintf("/v1/%s/%s/provision", kind, id.String())
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	blob, err := base64.StdEncoding.DecodeString(out.Blob)
	if err != nil {
		return nil, fmt.Errorf("backendclient: provision blob: %w", err)
	}
	return blob, nil
}

func (c *Client) ProvisionSubject(ctx context.Context, id cert.ID) (*backend.SubjectProvision, error) {
	blob, err := c.provision(ctx, "subjects", id)
	if err != nil {
		return nil, err
	}
	return backend.DecodeSubjectProvision(blob)
}

func (c *Client) ProvisionObject(ctx context.Context, id cert.ID) (*backend.ObjectProvision, error) {
	blob, err := c.provision(ctx, "objects", id)
	if err != nil {
		return nil, err
	}
	return backend.DecodeObjectProvision(blob)
}

func (c *Client) AddPolicy(ctx context.Context, subjectPred, objectPred *attr.Predicate, rights []string) (uint64, backend.UpdateReport, error) {
	if subjectPred == nil || objectPred == nil {
		return 0, backend.UpdateReport{}, fmt.Errorf("%w: policy predicates required", backend.ErrBadPredicate)
	}
	var out struct {
		ID     uint64     `json:"id"`
		Report wireReport `json:"report"`
	}
	body := map[string]any{
		"subject": subjectPred.String(), "object": objectPred.String(), "rights": rights,
	}
	if err := c.do(ctx, http.MethodPost, "/v1/policies", body, &out); err != nil {
		return 0, backend.UpdateReport{}, err
	}
	rep, err := out.Report.toReport()
	return out.ID, rep, err
}

func (c *Client) RemovePolicy(ctx context.Context, id uint64) (backend.UpdateReport, error) {
	var out struct {
		Report wireReport `json:"report"`
	}
	if err := c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/policies/%d", id), nil, &out); err != nil {
		return backend.UpdateReport{}, err
	}
	return out.Report.toReport()
}

func (c *Client) RevokeSubject(ctx context.Context, id cert.ID) (backend.UpdateReport, error) {
	var out struct {
		Report wireReport `json:"report"`
	}
	if err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/subjects/%s/revoke", id.String()), struct{}{}, &out); err != nil {
		return backend.UpdateReport{}, err
	}
	return out.Report.toReport()
}

func (c *Client) UpdateSubjectAttrs(ctx context.Context, id cert.ID, attrs attr.Set) (backend.UpdateReport, error) {
	var out struct {
		Report wireReport `json:"report"`
	}
	body := map[string]string{"attrs": attrs.String()}
	if err := c.do(ctx, http.MethodPut, fmt.Sprintf("/v1/subjects/%s/attrs", id.String()), body, &out); err != nil {
		return backend.UpdateReport{}, err
	}
	return out.Report.toReport()
}

func (c *Client) CreateGroup(ctx context.Context, description string) (groups.ID, error) {
	var out struct {
		ID uint64 `json:"id"`
	}
	body := map[string]string{"description": description}
	if err := c.do(ctx, http.MethodPost, "/v1/groups", body, &out); err != nil {
		return 0, err
	}
	return groups.ID(out.ID), nil
}

func (c *Client) AddSubjectToGroup(ctx context.Context, subject cert.ID, gid groups.ID) error {
	body := map[string]string{"subject": subject.String()}
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/groups/%d/subjects", uint64(gid)), body, nil)
}

func (c *Client) AddCovertService(ctx context.Context, object cert.ID, gid groups.ID, functions []string) error {
	body := map[string]any{"object": object.String(), "functions": functions}
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/groups/%d/covert", uint64(gid)), body, nil)
}

func (c *Client) StateFingerprint(ctx context.Context) (string, error) {
	var out struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/fingerprint", nil, &out); err != nil {
		return "", err
	}
	return out.Fingerprint, nil
}

var _ backend.Service = (*Client)(nil)

// Admin is a thin client for the tenant-administration routes (server admin
// key, not a tenant key).
type Admin struct {
	base     string
	adminKey string
	hc       *http.Client
}

// NewAdmin builds a tenant-administration client.
func NewAdmin(base, adminKey string, opts ...Option) *Admin {
	c := New(base, "", adminKey, opts...)
	return &Admin{base: c.base, adminKey: adminKey, hc: c.hc}
}

// CreateTenant provisions a tenant namespace, returning its bearer key.
func (a *Admin) CreateTenant(ctx context.Context, name string, strength suite.Strength) (authKey string, err error) {
	blob, err := json.Marshal(map[string]any{"name": name, "strength": int(strength)})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+"/v1/tenants", bytes.NewReader(blob))
	if err != nil {
		return "", err
	}
	req.Header.Set("Authorization", "Bearer "+a.adminKey)
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusCreated {
		var eb struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if json.Unmarshal(payload, &eb) == nil && eb.Error != "" {
			if sentinel := backendsvc.SentinelFor(eb.Code); sentinel != nil {
				return "", &remoteError{msg: eb.Error, sentinel: sentinel}
			}
			return "", fmt.Errorf("backendclient: create tenant: %s", eb.Error)
		}
		return "", fmt.Errorf("backendclient: create tenant: HTTP %d", resp.StatusCode)
	}
	var out struct {
		AuthKey string `json:"auth_key"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return "", err
	}
	return out.AuthKey, nil
}
