package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"nocstar/client"
	"nocstar/internal/metrics"
	"nocstar/internal/store"
	"nocstar/internal/system"
)

// Replicas over one store: a server with a store directory claims every
// cold hash with a lease before running it, follows another replica's
// live lease instead of running, and resolves job IDs minted by any
// replica from the store and the leases. Nothing here sends a request
// to another server; the shared directory is the only channel.

// renewInterval paces the lease-renewal pass, well within
// store.LeaseTTL.
const renewInterval = time.Second

// pollInterval paces followers and remote event streams checking the
// store for a blob another replica is computing.
const pollInterval = 50 * time.Millisecond

// openResults builds the result store Options describe: a memory tier,
// over a directory tier when StoreDir is set. It returns the store and
// both of its tiers (dir is nil without StoreDir). Blobs read from the
// directory come from outside this process (a previous incarnation,
// another replica, anything with write access to the volume), so the
// directory serves a blob only once validResult accepts it; a blob
// that it refuses counts in storeErrors and is a miss.
func openResults(opts Options, storeErrors *metrics.AtomicCounter) (store.Store, *store.Memory, *store.Dir, error) {
	mem := store.NewMemory(opts.StoreMaxEntries)
	if opts.StoreDir == "" {
		return mem, mem, nil, nil
	}
	dir, err := store.OpenDir(opts.StoreDir, opts.StoreMaxEntries, opts.StoreMaxBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	dir.SetCheck(func(blob []byte) bool {
		if validResult(blob) {
			return true
		}
		storeErrors.Inc()
		return false
	})
	return store.Tiered(mem, dir), mem, dir, nil
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

// renewLoop keeps this replica's leases live until the server stops,
// and cancels the local jobs whose cancellation another replica has
// requested (see resolveRemoteCancel).
func (s *Server) renewLoop() {
	defer close(s.renewed)
	if s.dir == nil {
		return
	}
	t := time.NewTicker(renewInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		for _, hash := range s.dir.Renew() {
			s.mu.Lock()
			j := s.inflight[hash]
			s.mu.Unlock()
			if j != nil {
				s.cancelJob(j)
			}
		}
	}
}

// runJob handles one dequeued job. A job already terminal — canceled
// while it waited in the queue — is only deregistered, never executed:
// its context is dead and its canceled outcome already set, so there
// is nothing to run and no outcome to count. Otherwise
// the job claims its hash: won, it runs here; held by another replica,
// it becomes a follower and frees the worker.
func (s *Server) runJob(j *job) {
	if j.terminal() {
		s.unregisterInflight(j)
		return
	}
	j.setState(client.StateRunning, nil, "")
	var lease *store.Lease
	var err error
	if s.dir != nil && j.ctx.Err() == nil {
		lease, err = s.dir.Claim(j.st.ConfigHash)
	}
	switch {
	case errors.Is(err, store.ErrLeased):
		s.met.leaseWaits.Inc()
		s.wg.Add(1)
		go s.follow(j)
	case lease != nil:
		s.runLeased(j, lease, false)
	default:
		// No store directory, a job whose context died in the queue, or a
		// lease directory that cannot be used (counted): run unleased
		// rather than not at all.
		if err != nil {
			s.met.storeErrors.Inc()
		}
		state, res, msg := s.execute(j)
		s.finish(j, state, res, msg, false)
	}
}

// follow waits for the replica holding j's hash to publish it, and
// takes the hash over if that replica releases the lease or lets it go
// stale without publishing. A follower holds no worker and no queue
// slot.
func (s *Server) follow(j *job) {
	defer s.wg.Done()
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		select {
		case <-j.ctx.Done():
			msg := system.ErrCanceled.Error()
			if errors.Is(j.ctx.Err(), context.DeadlineExceeded) {
				msg = system.ErrDeadlineExceeded.Error()
			}
			s.finish(j, client.StateCanceled, nil, msg, false)
			return
		case <-t.C:
		}
		if res, ok := s.results.Get(j.st.ConfigHash); ok {
			s.finish(j, client.StateDone, res, "", true)
			return
		}
		lease, err := s.dir.Claim(j.st.ConfigHash)
		if err == nil {
			s.runLeased(j, lease, true)
			return
		}
		if !errors.Is(err, store.ErrLeased) {
			s.met.storeErrors.Inc()
		}
	}
}

// runLeased runs j under its lease: the previous holder may have
// published just before letting go, so the store is checked once more;
// otherwise j executes and publishes its result. Whatever the outcome,
// the lease is released after publishing and before j turns terminal,
// so a client that sees j finish sees its lease gone. Executing a hash
// another holder gave up without publishing is a takeover: j followed a
// lease that went away (followed), or its claim replaced a stale one.
func (s *Server) runLeased(j *job, lease *store.Lease, followed bool) {
	res, cached := s.results.Get(j.st.ConfigHash)
	state, msg := client.StateDone, ""
	if !cached {
		if followed || lease.TookOver() {
			s.met.takeovers.Inc()
		}
		state, res, msg = s.execute(j)
	}
	lease.Release()
	s.finish(j, state, res, msg, cached)
}

// remoteRun resolves a job ID this server has no record of — minted by
// another replica, or by this one and since pruned — from the hash it
// embeds: a stored result means done, a live lease means running, and
// anything else is not found. The lease is read before the store is
// re-read because a holder publishes before it releases.
func (s *Server) remoteRun(id string) (hash string, result json.RawMessage, running, ok bool) {
	hash, ok = parseJobID(id)
	if !ok {
		return "", nil, false, false
	}
	if res, hit := s.results.Get(hash); hit {
		return hash, res, false, true
	}
	if s.dir == nil {
		return "", nil, false, false
	}
	leased := s.dir.Leased(hash)
	if res, hit := s.results.Get(hash); hit {
		return hash, res, false, true
	}
	return hash, nil, leased, leased
}

// storedStatus is the terminal status a stored result stands in for:
// the run is done, served from the store, under the caller's job ID.
func storedStatus(id, hash string, result json.RawMessage) client.RunStatus {
	return client.RunStatus{ID: id, State: client.StateDone, ConfigHash: hash, Cached: true, Result: result}
}

// leasedStatus is the status of a run some replica holds the lease of.
func leasedStatus(id, hash string) client.RunStatus {
	return client.RunStatus{ID: id, State: client.StateRunning, ConfigHash: hash}
}

func notFound(w http.ResponseWriter, id string) {
	writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no run %s", id))
}

// resolveRemoteGet serves GET /v1/runs/{id} for IDs not in the registry.
func (s *Server) resolveRemoteGet(w http.ResponseWriter, id string) {
	hash, res, running, ok := s.remoteRun(id)
	switch {
	case !ok:
		notFound(w, id)
	case running:
		writeStatus(w, http.StatusOK, leasedStatus(id, hash))
	default:
		writeStatus(w, http.StatusOK, storedStatus(id, hash, res))
	}
}

// resolveRemoteCancel serves DELETE /v1/runs/{id} for IDs not in the
// registry. A stored result is already terminal, so cancellation is a
// no-op success, as for a local done job. A run leased by some replica
// is asked to stop through the store; the holder cancels it on its next
// renewal pass, so the answer is 202 with the run still running.
func (s *Server) resolveRemoteCancel(w http.ResponseWriter, id string) {
	hash, _, running, ok := s.remoteRun(id)
	switch {
	case !ok:
		notFound(w, id)
	case running:
		if err := s.dir.RequestCancel(hash); err != nil {
			s.met.storeErrors.Inc()
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, leasedStatus(id, hash))
	default:
		writeJSON(w, http.StatusOK, storedStatus(id, hash, nil))
	}
}

// resolveRemoteEvents serves GET /v1/runs/{id}/events for IDs not in
// the registry: a stored result emits its single terminal frame; a
// leased run emits a running frame and then polls until the result is
// stored. If the lease ends with nothing stored the stream closes
// without a terminal frame, and the run resolves as not found. Each
// frame is the status GET /v1/runs/{id} answers, without its result.
func (s *Server) resolveRemoteEvents(w http.ResponseWriter, r *http.Request, id string) {
	hash, _, running, ok := s.remoteRun(id)
	if !ok {
		notFound(w, id)
		return
	}
	flusher, isFlusher := w.(http.Flusher)
	if !isFlusher {
		writeError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	if running {
		if writeSSE(w, "state", leasedStatus(id, hash)) != nil {
			return
		}
		flusher.Flush()
	}
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for running {
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
		if _, _, running, ok = s.remoteRun(id); !ok {
			return
		}
	}
	writeSSE(w, "state", storedStatus(id, hash, nil))
	flusher.Flush()
}
