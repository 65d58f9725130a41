package store

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"strings"
)

// This file is the server half of the remote store: NewHandler exposes a
// Backend over HTTP, and remote.go's Remote is the matching client. `synth
// serve` mounts the handler under /api/v1/store (behind its bearer-token
// auth), turning the serving node into the cluster's shared storage: worker
// nodes read and write artifacts and coordination files through it instead
// of through a shared filesystem.

// maxPayloadBytes bounds one artifact payload or coordination file crossing
// the HTTP transport. The largest real artifacts (compiled programs,
// stream profiles) are well under a megabyte; 32 MB leaves room without
// letting one request buffer unbounded memory.
const maxPayloadBytes = 32 << 20

// coordPrefixes are the only subtrees remote coordination-file operations
// may touch: the cluster job queue and the pipeline's in-progress markers.
// Artifact entries are reachable only through Get/Put/Has, so a remote
// client cannot rewrite envelopes through the file API.
var coordPrefixes = []string{"cluster/", WIPDir + "/"}

// coordName validates a remote coordination-file name: clean, relative,
// and inside an allowed subtree.
func coordName(name string) (string, error) {
	clean, err := CleanName(name)
	if err != nil {
		return "", err
	}
	for _, p := range coordPrefixes {
		if strings.HasPrefix(clean, p) {
			return clean, nil
		}
	}
	return "", errors.New("store: remote file access is limited to cluster/ and " + WIPDir + "/")
}

// NewHandler exposes b over HTTP for Remote clients. Routes (relative to
// the mount point, so wrap with http.StripPrefix):
//
//	GET  /get?digest=&kind=&key=     artifact payload, or 404
//	PUT  /put?digest=&kind=&key=     store the request body as the payload
//	GET  /has?digest=&kind=&key=     204 when present, 404 when absent
//	GET  /file?name=                 coordination file contents, or 404
//	PUT  /file?name=                 atomically write the body
//	POST /create?name=               exclusive create (409 when it exists)
//	GET  /stat?name=                 {"name","mtime"} metadata, or 404
//	GET  /list?dir=                  JSON array of {"name","mtime"}
//	POST /rename?from=&to=           atomic rename (404 when from is gone)
//	POST /remove?name=               delete (404 when already gone)
//	POST /touch?name=                refresh mtime (404 when gone)
//
// Status codes carry the protocol's only semantics: 404 maps to
// fs.ErrNotExist and 409 to fs.ErrExist on the client, so queue claim
// races and marker claims behave identically over HTTP and on a local
// disk. Coordination-file routes are restricted to the cluster queue and
// in-progress marker subtrees.
func NewHandler(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/get", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		payload, ok := b.Get(q.Get("digest"), q.Get("kind"), q.Get("key"))
		if !ok {
			http.Error(w, "no such artifact", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
	})
	mux.HandleFunc("/put", func(w http.ResponseWriter, r *http.Request) {
		if !methodIs(w, r, http.MethodPut, http.MethodPost) {
			return
		}
		payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPayloadBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Put splices the payload into its envelope unchecked; a remote
		// client is the one writer it cannot trust to send JSON.
		if !json.Valid(payload) {
			http.Error(w, "payload is not JSON", http.StatusBadRequest)
			return
		}
		q := r.URL.Query()
		if err := b.Put(q.Get("digest"), q.Get("kind"), q.Get("key"), payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/has", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if !b.Has(q.Get("digest"), q.Get("kind"), q.Get("key")) {
			http.Error(w, "no such artifact", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/file", func(w http.ResponseWriter, r *http.Request) {
		name, err := coordName(r.URL.Query().Get("name"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			data, err := b.ReadFile(name)
			if err != nil {
				fileError(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		case http.MethodPut, http.MethodPost:
			data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPayloadBytes))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := b.WriteFile(name, data); err != nil {
				fileError(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, PUT, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/create", func(w http.ResponseWriter, r *http.Request) {
		if !methodIs(w, r, http.MethodPost, http.MethodPut) {
			return
		}
		name, err := coordName(r.URL.Query().Get("name"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPayloadBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := b.CreateExclusive(name, data); err != nil {
			fileError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/stat", func(w http.ResponseWriter, r *http.Request) {
		name, err := coordName(r.URL.Query().Get("name"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fi, err := b.Stat(name)
		if err != nil {
			fileError(w, err)
			return
		}
		writeFileInfoJSON(w, fi)
	})
	mux.HandleFunc("/list", func(w http.ResponseWriter, r *http.Request) {
		dir, err := coordName(r.URL.Query().Get("dir"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		infos, err := b.List(dir)
		if err != nil {
			fileError(w, err)
			return
		}
		if infos == nil {
			infos = []FileInfo{}
		}
		writeFileInfoJSON(w, infos)
	})
	mux.HandleFunc("/rename", func(w http.ResponseWriter, r *http.Request) {
		if !methodIs(w, r, http.MethodPost) {
			return
		}
		from, err := coordName(r.URL.Query().Get("from"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		to, err := coordName(r.URL.Query().Get("to"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := b.Rename(from, to); err != nil {
			fileError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/remove", func(w http.ResponseWriter, r *http.Request) {
		if !methodIs(w, r, http.MethodPost) {
			return
		}
		name, err := coordName(r.URL.Query().Get("name"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := b.Remove(name); err != nil {
			fileError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/touch", func(w http.ResponseWriter, r *http.Request) {
		if !methodIs(w, r, http.MethodPost) {
			return
		}
		name, err := coordName(r.URL.Query().Get("name"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := b.Touch(name); err != nil {
			fileError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// methodIs enforces an allowed-method set, answering 405 otherwise.
func methodIs(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	for _, m := range allowed {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// fileError maps a coordination-op error onto the protocol's status codes:
// not-exist → 404, exist → 409, anything else → 500.
func fileError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, fs.ErrExist):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeFileInfoJSON renders v (FileInfo or []FileInfo) as JSON.
func writeFileInfoJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
