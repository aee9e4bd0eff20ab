package server

import (
	"context"
	"encoding/json"
	"slices"
	"sync"

	"nocstar/client"
	"nocstar/internal/system"
)

// job is one accepted simulation request. Its record is its wire
// status: the lifecycle
//
//	queued -> running -> done | failed | canceled
//
// runs through st.State (client.State*). Cache-served jobs are born
// done (Cached set). State only ever moves forward; done, failed and
// canceled are terminal.
type job struct {
	// cfg is the config the job runs; only execute reads it. A job born
	// done from a held result (see heldResult) carries the zero Config.
	cfg system.Config

	// ctx governs the execution (server base context plus the request's
	// deadline); cancel releases it and is also the DELETE handler's
	// lever. Both are nil for a job born done, which never executes.
	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu sync.Mutex
	// st is the job's status, guarded by mu. Its ID, ConfigHash and Node
	// are fixed at construction, so they may be read without mu. A done
	// job's Result holds json.Marshal(system.Result) — the exact bytes a
	// direct in-process Run of the same Config marshals to, and what the
	// result store holds.
	st   client.RunStatus
	subs []chan client.RunStatus
}

// status snapshots the job for a response. withResult false elides the
// (large) result payload, for listings and event frames.
func (j *job) status(withResult bool) client.RunStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked(withResult)
}

// snapshotLocked is status for a caller holding j.mu.
func (j *job) snapshotLocked(withResult bool) client.RunStatus {
	st := j.st
	if !withResult {
		st.Result = nil
	}
	return st
}

// terminal reports whether the job has reached a terminal state. It
// hands Terminal only the state: Terminal's value receiver would
// otherwise copy the whole status each time.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return client.RunStatus{State: j.st.State}.Terminal()
}

// setState advances the lifecycle and notifies subscribers. result and
// errMsg apply to terminal states; done is closed on the first terminal
// transition, and setState reports whether this call made it. Calls
// after a terminal state are ignored (a DELETE racing completion must not
// resurrect the job).
func (j *job) setState(state string, result json.RawMessage, errMsg string) bool {
	j.mu.Lock()
	if j.st.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.st.State = state
	j.st.Result = result
	j.st.Error = errMsg
	ev := j.snapshotLocked(false)
	subs := slices.Clone(j.subs)
	j.mu.Unlock()
	if ev.Terminal() {
		close(j.done)
	}
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // slow subscriber: it will catch the terminal state via done
		}
	}
	return ev.Terminal()
}

// subscribe registers an SSE listener and returns its channel plus the
// current status to replay first.
func (j *job) subscribe() (chan client.RunStatus, client.RunStatus) {
	ch := make(chan client.RunStatus, 8)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs = append(j.subs, ch)
	return ch, j.snapshotLocked(false)
}

// unsubscribe removes an SSE listener.
func (j *job) unsubscribe(ch chan client.RunStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}
