package server

import (
	"context"
	"encoding/json"
	"strings"
	"sync"

	"nocstar/internal/system"
)

// jobState is one station of the job lifecycle:
//
//	queued -> running -> done | failed | canceled
//
// Cache-served jobs are born done (Cached set). State only ever moves
// forward; done/failed/canceled are terminal.
type jobState string

const (
	stateQueued   jobState = "queued"
	stateRunning  jobState = "running"
	stateDone     jobState = "done"
	stateFailed   jobState = "failed"
	stateCanceled jobState = "canceled"
)

func (s jobState) terminal() bool {
	return s == stateDone || s == stateFailed || s == stateCanceled
}

// jobEvent is one SSE progress message.
type jobEvent struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// job is one accepted simulation request.
type job struct {
	id   string
	hash string
	cfg  system.Config

	// ctx governs the execution (server base context plus the request's
	// deadline); cancel releases it and is also the DELETE handler's
	// lever.
	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu     sync.Mutex
	state  jobState
	cached bool
	errMsg string
	// result holds json.Marshal(system.Result) for done jobs — the exact
	// bytes a direct in-process Run of the same Config marshals to, and
	// what the LRU cache stores.
	result json.RawMessage
	subs   []chan jobEvent
}

// runStatus is the wire form of a job, served by POST /v1/runs and
// GET /v1/runs/{id}. Result embeds the marshaled Result verbatim
// (json.RawMessage), preserving byte identity with a direct Run.
type runStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	ConfigHash string          `json:"config_hash"`
	Node       string          `json:"node,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	Deduped    bool            `json:"deduped,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// status snapshots the job for a response. withResult false elides the
// (large) result payload, for listings.
func (j *job) status(withResult bool) runStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	epoch, _, _ := strings.Cut(j.id, "-") // the minting incarnation heads the ID
	st := runStatus{
		ID:         j.id,
		State:      string(j.state),
		ConfigHash: j.hash,
		Node:       epoch,
		Cached:     j.cached,
		Error:      j.errMsg,
	}
	if withResult {
		st.Result = j.result
	}
	return st
}

// terminal reports whether the job has reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.terminal()
}

// event snapshots the job as an SSE progress message.
func (j *job) event() jobEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobEvent{ID: j.id, State: string(j.state), Error: j.errMsg}
}

// setState advances the lifecycle and notifies subscribers. result and
// errMsg apply to terminal states; done is closed on the first terminal
// transition. Calls after a terminal state are ignored (a DELETE racing
// completion must not resurrect the job).
func (j *job) setState(state jobState, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	ev := jobEvent{ID: j.id, State: string(state), Error: errMsg}
	subs := make([]chan jobEvent, len(j.subs))
	copy(subs, j.subs)
	j.mu.Unlock()
	if state.terminal() {
		close(j.done)
	}
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // slow subscriber: it will catch the terminal state via done
		}
	}
}

// subscribe registers an SSE listener and returns its channel plus the
// current state to replay first.
func (j *job) subscribe() (chan jobEvent, jobEvent) {
	ch := make(chan jobEvent, 8)
	j.mu.Lock()
	cur := jobEvent{ID: j.id, State: string(j.state), Error: j.errMsg}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return ch, cur
}

// unsubscribe removes an SSE listener.
func (j *job) unsubscribe(ch chan jobEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}
