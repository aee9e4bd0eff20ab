package server

import (
	"net/http"

	"nocstar/internal/system"
)

// The unified error envelope: every non-2xx /v1 response carries
//
//	{"error":{"code":"...","message":"...","fields":[...]}}
//
// with a stable machine-readable code, so clients branch on codes
// instead of parsing prose. The public client package decodes this
// envelope into typed Go errors; testdata/error_envelope.golden.json
// pins the schema.

// Stable error codes. These are API surface: never renumber or reuse.
// "owner_unreachable" was sent while servers proxied requests to one
// another; no server sends it now, and the code stays retired.
const (
	// codeBadRequest: the request itself is malformed (unreadable or
	// oversized body, bad query parameter, non-array sweep, oversized
	// batch).
	codeBadRequest = "bad_request"
	// codeInvalidConfig: the submitted config failed decoding or
	// validation; Fields carries the per-field diagnoses when the
	// validator produced them.
	codeInvalidConfig = "invalid_config"
	// codeQueueFull: the bounded queue is full. Responses carry
	// Retry-After.
	codeQueueFull = "queue_full"
	// codeDraining: the server is shutting down and refuses new work.
	codeDraining = "draining"
	// codeNotFound: no such run — not in this server's registry, and
	// no result stored under the hash its ID embeds.
	codeNotFound = "not_found"
	// codeInternal: the server failed; the message says how.
	codeInternal = "internal"
)

// errorBody is the inner error object.
type errorBody struct {
	Code    string              `json:"code"`
	Message string              `json:"message"`
	Fields  []system.FieldError `json:"fields,omitempty"`
}

// errorEnvelope is the top-level non-2xx response document.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// writeError emits one enveloped error response.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeErrorFields(w, status, code, message, nil)
}

// writeErrorFields emits one enveloped error response with per-field
// diagnoses.
func writeErrorFields(w http.ResponseWriter, status int, code, message string, fields []system.FieldError) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: message, Fields: fields}})
}
