package store

import "sync/atomic"

// remoteOps are the wire operations a Remote counts. "file_get"/"file_put" split the coordination-file route by
// method; everything else maps one route to one op.
var remoteOps = []string{
	"create", "file_get", "file_put", "get", "has", "list",
	"put", "remove", "rename", "stat", "touch",
}

// remoteOpStats counts one operation's requests and errors. The counters
// are two atomic adds per round-trip; `synth work -remote` prints their
// totals as its transport summary, and the benchmark ledger reads them.
type remoteOpStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
}

// RemoteStats is a point-in-time snapshot of a Remote's per-operation
// round-trip counts. Expected protocol outcomes (404 miss, 409 exists) are
// requests, not errors; errors are transport failures and unexpected
// statuses.
type RemoteStats struct {
	// Requests and Errors map operation name (get, put, touch, ...) to
	// counts; operations never performed are omitted.
	Requests map[string]uint64
	Errors   map[string]uint64
}

// Total returns the summed request and error counts across operations.
func (s RemoteStats) Total() (requests, errors uint64) {
	for _, n := range s.Requests {
		requests += n
	}
	for _, n := range s.Errors {
		errors += n
	}
	return
}

// newRemoteOpStats builds the fixed per-operation counter map.
func newRemoteOpStats() map[string]*remoteOpStats {
	m := make(map[string]*remoteOpStats, len(remoteOps))
	for _, op := range remoteOps {
		m[op] = &remoteOpStats{}
	}
	return m
}

// opName maps one request's (method, route) to its operation name.
func opName(method, route string) string {
	if route == "file" {
		if method == "PUT" {
			return "file_put"
		}
		return "file_get"
	}
	return route
}

// record counts one round-trip and, if it failed, its error.
func (r *Remote) record(op string, failed bool) {
	if s, ok := r.ops[op]; ok {
		s.requests.Add(1)
		if failed {
			s.errors.Add(1)
		}
	}
}

// Stats returns a snapshot of the per-operation round-trip counts so far.
func (r *Remote) Stats() RemoteStats {
	st := RemoteStats{Requests: make(map[string]uint64), Errors: make(map[string]uint64)}
	for op, s := range r.ops {
		if n := s.requests.Load(); n > 0 {
			st.Requests[op] = n
		}
		if n := s.errors.Load(); n > 0 {
			st.Errors[op] = n
		}
	}
	return st
}
