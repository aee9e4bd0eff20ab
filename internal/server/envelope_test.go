package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorEnvelopeGolden pins the unified error envelope: the exact
// bytes of a validation failure (code, message, per-field diagnoses)
// against testdata/error_envelope.golden.json, and the schema shape of
// every other error class. The envelope is public API surface — the
// typed client and external tooling branch on it — so any change here
// must be deliberate. Regenerate with -update.
func TestErrorEnvelopeGolden(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"schema": 1, "org": "nocstar", "apps": [{"workload": "gups", "threads": 0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	got = bytes.TrimSpace(got)

	golden := filepath.Join("testdata", "error_envelope.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (set UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Fatalf("error envelope drifted from golden:\n got: %s\nwant: %s", got, bytes.TrimSpace(want))
	}

	// Every other error class conforms to the same schema: a single
	// top-level "error" object with non-empty code and message.
	for _, tc := range []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode string
		status   int
	}{
		{"not_found", http.MethodGet, "/v1/runs/run-999999-nope", "", "not_found", 404},
		{"bad_request", http.MethodPost, "/v1/sweeps", `{"not":"an array"}`, "bad_request", 400},
		{"bad_timeout", http.MethodPost, "/v1/runs?timeout=soon", smallConfig(1), "bad_request", 400},
		{"too_large", http.MethodPost, "/v1/runs", strings.Repeat(" ", maxConfigBytes+1), "bad_request", 413},
		{"invalid_config", http.MethodPost, "/v1/runs", `{"org":"nocstar","coars":4}`, "invalid_config", 400},
	} {
		var rd io.Reader
		if tc.body != "" {
			rd = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: non-JSON error body %s", tc.name, raw)
		}
		if len(doc) != 1 {
			t.Fatalf("%s: envelope has %d top-level keys, want exactly {error}: %s", tc.name, len(doc), raw)
		}
		var inner struct {
			Code    string          `json:"code"`
			Message string          `json:"message"`
			Fields  json.RawMessage `json:"fields"`
		}
		if err := json.Unmarshal(doc["error"], &inner); err != nil {
			t.Fatalf("%s: malformed error object: %s", tc.name, raw)
		}
		if inner.Code != tc.wantCode || inner.Message == "" {
			t.Fatalf("%s: code %q message %q, want code %q and a message", tc.name, inner.Code, inner.Message, tc.wantCode)
		}
	}
}
