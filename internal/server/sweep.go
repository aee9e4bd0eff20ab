package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"nocstar/client"
	"nocstar/internal/system"
)

// POST /v1/sweeps accepts a JSON array of configs — a whole design-space
// sweep in one request — validates every element up front (any invalid
// config fails the whole batch with a 400 naming its index, before a
// byte of the stream is committed), then fans the batch through the
// same acquire path as single submissions: store hits are served
// instantly, duplicates singleflight, and the rest flow through the
// bounded queue (a full queue backpressures the sweep instead of
// rejecting it). Results stream back as SSE "result" events in
// completion order, each embedding the raw marshaled Result —
// byte-identical to a direct system.Run — and a terminal "summary"
// event closes the stream. Its Unsubmitted count is the configs never
// acquired: the server began draining, or the client went away,
// mid-sweep.

// maxSweepConfigs bounds one sweep request; larger design spaces are
// split by the client.
const maxSweepConfigs = 4096

// maxSweepBytes bounds the body of one sweep request.
const maxSweepBytes = 64 << 20

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxSweepBytes)
	if !ok {
		return
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "want a JSON array of config objects")
		return
	}
	if len(raws) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty sweep")
		return
	}
	if len(raws) > maxSweepConfigs {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("sweep of %d configs exceeds the %d-config limit", len(raws), maxSweepConfigs))
		return
	}
	timeout, err := s.parseTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	// Validate the whole batch before committing the response status:
	// SSE cannot report a 400 once streaming has begun. An element
	// whose result the memory tier holds skips validation (heldResult),
	// and its blob stays held until its job is born done with it: were
	// it looked up again at acquire, an eviction in between would leave
	// a job to run with no config.
	cfgs := make([]system.Config, len(raws))
	hashes := make([]string, len(raws))
	held := make([][]byte, len(raws))
	for i, raw := range raws {
		if len(raw) > maxConfigBytes {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("config[%d]: %d bytes exceeds the %d-byte per-config limit", i, len(raw), maxConfigBytes))
			return
		}
		if hashes[i], held[i], ok = s.heldResult(raw); ok {
			continue
		}
		if cfgs[i], hashes[i], ok = s.decodeConfig(w, raw, fmt.Sprintf("config[%d]: ", i)); !ok {
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported")
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.met.sweepConfigs.Add(uint64(len(cfgs)))

	// Acquire every config. A full queue backpressures (retry until a
	// slot frees) rather than failing the sweep; draining or a gone
	// client abandons the remainder.
	jobs := make([]*job, len(cfgs))
	summary := client.SweepSummary{Total: len(cfgs)}
acquire:
	for i := range cfgs {
		for {
			j, how, err := s.acquire(cfgs[i], hashes[i], held[i], timeout)
			switch {
			case err == nil:
				jobs[i] = j
				if how == acqCached {
					summary.CacheHits++
				}
			case errors.Is(err, errQueueFull):
				select {
				case <-time.After(10 * time.Millisecond):
					continue
				case <-r.Context().Done():
					break acquire
				}
			default: // draining
				break acquire
			}
			break
		}
	}

	// Stream terminal results in completion order.
	completed := make(chan int, len(jobs))
	watching := 0
	for i, j := range jobs {
		if j == nil {
			summary.Unsubmitted++
			continue
		}
		watching++
		go func(i int, done <-chan struct{}) {
			select {
			case <-done:
				completed <- i
			case <-r.Context().Done():
			}
		}(i, j.done)
	}
stream:
	for n := 0; n < watching; n++ {
		select {
		case i := <-completed:
			st := jobs[i].status(true)
			switch st.State {
			case client.StateDone:
				summary.Done++
			case client.StateCanceled:
				summary.Canceled++
			default:
				summary.Failed++
			}
			ev := client.SweepResult{
				Index:      i,
				ID:         st.ID,
				ConfigHash: st.ConfigHash,
				State:      st.State,
				Cached:     st.Cached,
				Error:      st.Error,
			}
			if writeResultFrame(w, ev, st.Result) != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			break stream
		}
	}
	writeSSE(w, "summary", summary)
	flusher.Flush()
}

// writeSSE emits one named SSE frame — a run's "state", or a sweep's
// "summary" — reporting marshal and write failures so the stream
// terminates instead of silently dropping data.
func writeSSE(w io.Writer, event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("marshaling %s event: %w", event, err)
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}

// writeResultFrame emits a sweep's "result" frame for ev, whose own
// Result is nil, with result spliced in: the frame writeSSE would emit
// for ev with Result set (see appendWithResult).
func writeResultFrame(w io.Writer, ev client.SweepResult, result json.RawMessage) error {
	b, err := appendWithResult([]byte("event: result\ndata: "), ev, result)
	if err != nil {
		return fmt.Errorf("marshaling result event: %w", err)
	}
	_, err = w.Write(append(b, "\n\n"...))
	return err
}
