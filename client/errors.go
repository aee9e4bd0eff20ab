package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"nocstar"
)

// Sentinel errors for the server's stable error codes. Every non-2xx
// response decodes to an *APIError, and errors.Is(err, ErrQueueFull)
// (etc.) matches on the code, so callers branch without string
// comparison:
//
//	st, err := c.SubmitRun(ctx, cfg)
//	if errors.Is(err, client.ErrQueueFull) { backoff() }
var (
	// ErrBadRequest: the request itself was malformed.
	ErrBadRequest = errors.New("nocstar: bad request")
	// ErrInvalidConfig: the config failed decoding or validation; the
	// APIError's Fields carry the per-field diagnoses.
	ErrInvalidConfig = errors.New("nocstar: invalid config")
	// ErrQueueFull: admission control rejected the work; the APIError's
	// RetryAfter says when to retry.
	ErrQueueFull = errors.New("nocstar: queue full")
	// ErrDraining: the node is shutting down.
	ErrDraining = errors.New("nocstar: server draining")
	// ErrNotFound: no such run — neither known to the server nor
	// stored in its result store.
	ErrNotFound = errors.New("nocstar: run not found")
	// ErrOwnerUnreachable matches the retired "owner_unreachable" code,
	// which servers sent while they proxied requests to one another. No
	// server sends it now; it stays because codes are never reused.
	ErrOwnerUnreachable = errors.New("nocstar: owner unreachable")
	// ErrInternal: the server failed.
	ErrInternal = errors.New("nocstar: internal server error")
)

// codeSentinels maps the wire codes to their errors.Is sentinels.
var codeSentinels = map[string]error{
	"bad_request":       ErrBadRequest,
	"invalid_config":    ErrInvalidConfig,
	"queue_full":        ErrQueueFull,
	"draining":          ErrDraining,
	"not_found":         ErrNotFound,
	"owner_unreachable": ErrOwnerUnreachable,
	"internal":          ErrInternal,
}

// APIError is a decoded non-2xx response: the HTTP status, the
// server's stable machine-readable code, its human message, and — for
// invalid configs — the per-field validation diagnoses.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable error code from the envelope.
	Code string
	// Message is the server's human-readable explanation.
	Message string
	// Fields carries per-field validation errors (invalid_config).
	Fields []nocstar.FieldError
	// RetryAfter is the parsed Retry-After header, when present.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if len(e.Fields) > 0 {
		return fmt.Sprintf("nocstar: %s (%d): %s (%d invalid fields)", e.Code, e.Status, e.Message, len(e.Fields))
	}
	return fmt.Sprintf("nocstar: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Is matches the sentinel for e's code, making *APIError errors.Is-able.
func (e *APIError) Is(target error) bool {
	return codeSentinels[e.Code] == target
}

// errorEnvelope is the wire form of every non-2xx /v1 response.
type errorEnvelope struct {
	Error struct {
		Code    string               `json:"code"`
		Message string               `json:"message"`
		Fields  []nocstar.FieldError `json:"fields,omitempty"`
	} `json:"error"`
}

// decodeError turns a non-2xx response into an *APIError. Bodies that
// are not the envelope (a proxy in the path, say) still produce a
// typed error with the raw body as the message.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return bodyError(resp, raw)
}

// bodyError is decodeError over a body already read.
func bodyError(resp *http.Response, raw []byte) error {
	apiErr := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.Fields = env.Error.Fields
		return apiErr
	}
	apiErr.Code = "internal"
	apiErr.Message = fmt.Sprintf("unexpected response: %s", truncate(raw, 200))
	return apiErr
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
