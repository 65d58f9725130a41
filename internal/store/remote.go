package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// WIPDir is the store subtree holding the pipeline's in-progress markers
// (see pipeline's cross-process single-flight gate). It lives here because
// both backends must agree on the name: the filesystem store hosts it, the
// HTTP transport allowlists it, and Prune ignores it (it is not a
// two-hex-character artifact shard).
const WIPDir = "wip"

// Remote is a Backend client speaking to a `synth serve` node's
// /api/v1/store API (see NewHandler for the wire protocol). It lets a
// worker process participate in a cluster without sharing any filesystem
// with the coordinator: artifacts, the job queue, and in-progress markers
// all round-trip through the serving node, which applies them to its local
// store with the same atomicity guarantees local callers get.
//
// Get and Has treat every transport failure as a miss — the store is a
// cache, and the caller recomputes. Mutating operations return errors for
// the caller (the cluster worker's retry/backoff loop) to handle.
type Remote struct {
	base   string
	token  string
	client *http.Client
	// ops counts round-trips per wire operation (see remote_telemetry.go).
	ops map[string]*remoteOpStats
}

// OpenRemote returns a Remote speaking to base — the serve node's store
// mount, e.g. "http://host:8091/api/v1/store" (a bare "http://host:8091"
// is completed with the standard mount path). token, when non-empty, is
// sent as a bearer token on every request, matching `synth serve -token`.
func OpenRemote(base, token string) (*Remote, error) {
	u, err := url.Parse(base)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("store: remote URL %q (want http[s]://host:port[/api/v1/store])", base)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/api/v1/store"
	}
	return &Remote{
		base:  strings.TrimRight(u.String(), "/"),
		token: token,
		// Every operation is one small request; a stuck node should fail a
		// worker's op (and trigger its backoff) rather than hang it.
		client: &http.Client{Timeout: 30 * time.Second},
		ops:    newRemoteOpStats(),
	}, nil
}

// do performs one request and returns the response. Non-2xx statuses are
// returned as the mapped protocol errors (404 → fs.ErrNotExist, 409 →
// fs.ErrExist) with the body's first line as context.
func (r *Remote) do(method, route string, query url.Values, body []byte) (*http.Response, error) {
	op := opName(method, route)
	u := r.base + "/" + route
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		r.record(op, true)
		return nil, err
	}
	if r.token != "" {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.record(op, true)
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		r.record(op, false)
		return resp, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	detail := strings.TrimSpace(string(msg))
	name := route
	if n := query.Get("name"); n != "" {
		name = n
	} else if n := query.Get("from"); n != "" {
		name = n
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		// A miss is an expected protocol outcome, not a transport error.
		r.record(op, false)
		return nil, notExist(name)
	case http.StatusConflict:
		r.record(op, false)
		return nil, exist(name)
	}
	r.record(op, true)
	return nil, fmt.Errorf("store: remote %s %s: %s: %s", method, route, resp.Status, detail)
}

// vals builds a url.Values from alternating key/value pairs.
func vals(kv ...string) url.Values {
	v := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(kv[i], kv[i+1])
	}
	return v
}

// Get returns the payload stored under digest, or ok=false when the entry
// is absent — or unreachable: a network failure is a miss by design.
func (r *Remote) Get(digest, kind, key string) ([]byte, bool) {
	resp, err := r.do(http.MethodGet, "get", vals("digest", digest, "kind", kind, "key", key), nil)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxPayloadBytes))
	if err != nil {
		return nil, false
	}
	return payload, true
}

// Put writes payload under digest on the serving node.
func (r *Remote) Put(digest, kind, key string, payload []byte) error {
	resp, err := r.do(http.MethodPut, "put", vals("digest", digest, "kind", kind, "key", key), payload)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Has reports whether a valid entry exists for (digest, kind, key); an
// unreachable node reads as absent.
func (r *Remote) Has(digest, kind, key string) bool {
	resp, err := r.do(http.MethodGet, "has", vals("digest", digest, "kind", kind, "key", key), nil)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return true
}

// ReadFile returns the named coordination file's contents.
func (r *Remote) ReadFile(name string) ([]byte, error) {
	resp, err := r.do(http.MethodGet, "file", vals("name", name), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, maxPayloadBytes))
}

// WriteFile atomically writes the named coordination file on the node.
func (r *Remote) WriteFile(name string, data []byte) error {
	resp, err := r.do(http.MethodPut, "file", vals("name", name), data)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// CreateExclusive creates the named file, failing with fs.ErrExist when it
// already exists (mapped from the protocol's 409).
func (r *Remote) CreateExclusive(name string, data []byte) error {
	resp, err := r.do(http.MethodPost, "create", vals("name", name), data)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Stat returns the named file's metadata.
func (r *Remote) Stat(name string) (FileInfo, error) {
	resp, err := r.do(http.MethodGet, "stat", vals("name", name), nil)
	if err != nil {
		return FileInfo{}, err
	}
	defer resp.Body.Close()
	var fi FileInfo
	if err := json.NewDecoder(resp.Body).Decode(&fi); err != nil {
		return FileInfo{}, fmt.Errorf("store: remote stat %s: %w", name, err)
	}
	return fi, nil
}

// List returns the files directly under dir on the node.
func (r *Remote) List(dir string) ([]FileInfo, error) {
	resp, err := r.do(http.MethodGet, "list", vals("dir", dir), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var infos []FileInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("store: remote list %s: %w", dir, err)
	}
	return infos, nil
}

// Rename atomically moves oldname to newname on the node; a lost claim
// race surfaces as fs.ErrNotExist exactly as it does on a local disk.
func (r *Remote) Rename(oldname, newname string) error {
	resp, err := r.do(http.MethodPost, "rename", vals("from", oldname, "to", newname), nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Remove deletes the named file on the node.
func (r *Remote) Remove(name string) error {
	resp, err := r.do(http.MethodPost, "remove", vals("name", name), nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Touch refreshes the named file's mtime on the node (the heartbeat path:
// one POST per lease renewal).
func (r *Remote) Touch(name string) error {
	resp, err := r.do(http.MethodPost, "touch", vals("name", name), nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
