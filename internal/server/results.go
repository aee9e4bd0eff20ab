package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"nocstar/client"
	"nocstar/internal/metrics"
	"nocstar/internal/store"
	"nocstar/internal/system"
)

// The result store behind the server, and the runs it answers for
// without a record of them: one server owns a store directory, and a
// job ID it has no record of — minted by an earlier incarnation over
// the same directory, or by this one and since pruned from the job
// history — resolves from the store alone.

// openResults builds the result store Options describe: a memory tier,
// over a directory tier when StoreDir is set. It returns the store and
// its memory tier. Blobs read from the directory come from outside this
// process (a previous incarnation, anything with write access to the
// volume), so the directory serves a blob only once validResult
// accepts it; a blob that it refuses counts in storeErrors and is a
// miss.
func openResults(opts Options, storeErrors *metrics.AtomicCounter) (store.Store, *store.Memory, error) {
	mem := store.NewMemory(opts.StoreMaxEntries)
	if opts.StoreDir == "" {
		return mem, mem, nil
	}
	dir, err := store.OpenDir(opts.StoreDir, opts.StoreMaxEntries, opts.StoreMaxBytes)
	if err != nil {
		return nil, nil, err
	}
	dir.SetCheck(func(blob []byte) bool {
		if validResult(blob) {
			return true
		}
		storeErrors.Inc()
		return false
	})
	return store.Tiered(mem, dir), mem, nil
}

// validResult reports whether blob is exactly one JSON system.Result
// object — no unknown fields, no null, nothing after it — in
// encoding/json's compact, HTML-escaped form: json.Marshal of it as a
// json.RawMessage reproduces it byte for byte. The server splices
// results into its responses as they are stored (appendWithResult),
// which matches json.Marshal's output only for blobs in that form, the
// form json.Marshal(system.Result) always has.
func validResult(blob []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var res *system.Result
	if err := dec.Decode(&res); err != nil || res == nil {
		return false
	}
	if len(bytes.TrimSpace(blob[dec.InputOffset():])) != 0 {
		return false
	}
	canon, err := json.Marshal(json.RawMessage(blob))
	return err == nil && bytes.Equal(canon, blob)
}

// storedRun resolves a job ID this server has no record of from the
// canonical hash it embeds: a stored result means the run is done, and
// anything else — a malformed ID, a hash not stored — is not found.
func (s *Server) storedRun(id string) (hash string, result json.RawMessage, ok bool) {
	if hash, ok = parseJobID(id); !ok {
		return "", nil, false
	}
	result, ok = s.results.Get(hash)
	return hash, result, ok
}

// storedStatus is the terminal status a stored result stands in for:
// the run is done, served from the store, under the caller's job ID.
func storedStatus(id, hash string, result json.RawMessage) client.RunStatus {
	return client.RunStatus{ID: id, State: client.StateDone, ConfigHash: hash, Cached: true, Result: result}
}

func notFound(w http.ResponseWriter, id string) {
	writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no run %s", id))
}

// storedGet serves GET /v1/runs/{id} for IDs not in the registry.
func (s *Server) storedGet(w http.ResponseWriter, id string) {
	hash, res, ok := s.storedRun(id)
	if !ok {
		notFound(w, id)
		return
	}
	writeStatus(w, http.StatusOK, storedStatus(id, hash, res))
}

// storedCancel serves DELETE /v1/runs/{id} for IDs not in the registry.
// A stored result is already terminal, so cancellation is a no-op
// success, as for a registered done job.
func (s *Server) storedCancel(w http.ResponseWriter, id string) {
	hash, _, ok := s.storedRun(id)
	if !ok {
		notFound(w, id)
		return
	}
	writeJSON(w, http.StatusOK, storedStatus(id, hash, nil))
}

// storedEvents serves GET /v1/runs/{id}/events for IDs not in the
// registry: a stored run's stream is its one terminal frame, the status
// GET /v1/runs/{id} answers without its result. The whole stream is
// written before the handler returns, so nothing needs flushing.
func (s *Server) storedEvents(w http.ResponseWriter, id string) {
	hash, _, ok := s.storedRun(id)
	if !ok {
		notFound(w, id)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	writeSSE(w, "state", storedStatus(id, hash, nil))
}
