package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"nocstar/client"
	"nocstar/internal/store"
	"nocstar/internal/system"
)

// markupResult is a marshaled Result whose app name json.Marshal
// escapes: '<' as \u003c and '&' as \u0026.
func markupResult(t *testing.T) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(system.Result{Cycles: 7, Apps: []system.AppResult{{Name: "a<b&c", IPC: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`a\u003cb\u0026c`)) {
		t.Fatalf("app name not HTML-escaped: %s", b)
	}
	return b
}

// TestStatusBodiesMatchEncoder pins the spliced wire bytes: for every
// shape of run status, writeStatus writes exactly what
// json.NewEncoder(w).Encode writes, and a sweep's result frame is
// exactly the frame writeSSE writes with the result marshaled in.
func TestStatusBodiesMatchEncoder(t *testing.T) {
	res := markupResult(t)
	hash := strings.Repeat("0f", 32)
	id := "k2x-000042-" + hash
	for name, st := range map[string]client.RunStatus{
		"done":      {ID: id, State: client.StateDone, ConfigHash: hash, Node: "k2x", Result: res},
		"cached":    {ID: id, State: client.StateDone, ConfigHash: hash, Node: "k2x", Cached: true, Result: res},
		"deduped":   {ID: id, State: client.StateRunning, ConfigHash: hash, Node: "k2x", Deduped: true},
		"failed":    {ID: id, State: client.StateFailed, ConfigHash: hash, Node: "k2x", Error: "boom <&>"},
		"no result": {ID: id, State: client.StateQueued, ConfigHash: hash},
	} {
		rec := httptest.NewRecorder()
		writeStatus(rec, http.StatusAccepted, st)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(st); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q", name, rec.Code, rec.Header().Get("Content-Type"))
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s: spliced body\n%s\nencoder body\n%s", name, rec.Body.Bytes(), want.Bytes())
		}
	}
	for name, sr := range map[string]client.SweepResult{
		"done":   {Index: 3, ID: id, ConfigHash: hash, State: client.StateDone, Cached: true, Result: res},
		"failed": {Index: 0, ID: id, ConfigHash: hash, State: client.StateFailed, Error: "x"},
	} {
		var got, want bytes.Buffer
		result := sr.Result
		if err := writeSSE(&want, "result", sr); err != nil {
			t.Fatal(err)
		}
		sr.Result = nil
		if err := writeResultFrame(&got, sr, result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("sweep %s: spliced frame\n%s\nmarshaled frame\n%s", name, got.Bytes(), want.Bytes())
		}
	}
}

// post sends body to the server's POST /v1/runs (query appended) and
// returns the status code and response body.
func post(t *testing.T, base, query string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// seqRE matches a job ID's sequence number, the one part of a response
// that differs between two submissions of one stored config.
var seqRE = regexp.MustCompile(`"id":"([0-9a-z]+)-[0-9]+-`)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCanonicalBodyFastPath: a body whose SHA-256 the memory tier holds
// is served from it without decoding (heldResult), and everything a
// client can see matches the full path: the response bytes, invalid
// configs, a sweep element evicted between its lookup and its
// acquisition, and the ?timeout= and draining checks in their order.
func TestCanonicalBodyFastPath(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := ctxT(t)

	// Suite-workload shorthand, fields out of canonical order, extra
	// whitespace: the full path's hand-written input.
	hand := []byte(`{ "seed": 7,
		"apps": [ { "threads": 4, "workload": "gups" } ],
		"instr_per_thread": 5000, "cores": 4, "org": "nocstar", "schema": 1 }`)
	cfg, err := system.UnmarshalConfig(hand)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := cfg.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Run(ctx, cfg)
	if err != nil || first.State != client.StateDone || first.Cached {
		t.Fatalf("cold run: %v %+v", err, first)
	}
	if _, ok := srv.mem.Get(sha256Hex(canon)); !ok {
		t.Fatal("the memory tier does not hold the canonical body's hash")
	}

	t.Run("same bytes", func(t *testing.T) {
		invalid := srv.met.invalid.Value()
		hits := srv.met.cacheHits.Value()
		codeFast, fast := post(t, ts.URL, "", canon)
		codeFull, full := post(t, ts.URL, "", hand)
		if codeFast != http.StatusOK || codeFull != http.StatusOK {
			t.Fatalf("codes %d (canonical) and %d (hand-written), want 200", codeFast, codeFull)
		}
		norm := func(b []byte) []byte { return seqRE.ReplaceAll(b, []byte(`"id":"$1-N-`)) }
		if !bytes.Equal(norm(fast), norm(full)) || bytes.Equal(fast, full) {
			t.Fatalf("canonical and hand-written bodies answered differently beyond the sequence number:\n%s\n%s", fast, full)
		}
		var st client.RunStatus
		if err := json.Unmarshal(fast, &st); err != nil || !st.Cached || !bytes.Equal(st.Result, first.Result) {
			t.Fatalf("fast-path status: %v %+v", err, st)
		}
		if got := srv.met.cacheHits.Value() - hits; got != 2 {
			t.Fatalf("%d cache hits counted, want 2", got)
		}
		if srv.met.invalid.Value() != invalid {
			t.Fatal("a valid submission was counted invalid")
		}
	})

	t.Run("memory tier only", func(t *testing.T) {
		// A body the full path would refuse is served once the memory
		// tier holds its hash: the fast path decodes nothing, so it must
		// be keyed by what only a canonical encoding hashes to.
		odd := []byte(`not a config`)
		srv.mem.Put(sha256Hex(odd), first.Result)
		if code, _ := post(t, ts.URL, "", odd); code != http.StatusOK {
			t.Fatalf("held hash answered %d, want 200 from the memory tier", code)
		}
	})

	t.Run("invalid twin", func(t *testing.T) {
		for _, bad := range [][]byte{
			bytes.Replace(canon, []byte(`"threads":4`), []byte(`"threads":5`), 1),
			bytes.Replace(canon, []byte(`"cores":4`), []byte(`"cores":4,"coars":4`), 1),
		} {
			if bytes.Equal(bad, canon) {
				t.Fatal("twin equals the canonical body")
			}
			invalid := srv.met.invalid.Value()
			_, err := c.SubmitRunJSON(ctx, bad)
			if !errors.Is(err, client.ErrInvalidConfig) {
				t.Fatalf("invalid twin of a cached config: %v, want ErrInvalidConfig", err)
			}
			if srv.met.invalid.Value() != invalid+1 {
				t.Fatal("invalid twin not counted")
			}
		}
	})

	t.Run("sweep element evicted", sweepHeldAcrossEviction)

	t.Run("delete cached run", func(t *testing.T) {
		// A job born done has no execution context; DELETE leaves it
		// done and answers 200 with its status.
		_, body := post(t, ts.URL, "", canon)
		var st client.RunStatus
		if err := json.Unmarshal(body, &st); err != nil || !st.Cached {
			t.Fatalf("cache hit: %v %s", err, body)
		}
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var del client.RunStatus
		if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || del.ID != st.ID || del.State != client.StateDone {
			t.Fatalf("DELETE of a cached run: %d %+v, want 200 and done", resp.StatusCode, del)
		}
	})

	t.Run("timeout then draining", func(t *testing.T) {
		if code, _ := post(t, ts.URL, "?timeout=soon", canon); code != http.StatusBadRequest {
			t.Fatalf("malformed timeout on the fast path: %d, want 400", code)
		}
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
		if code, _ := post(t, ts.URL, "", canon); code != http.StatusServiceUnavailable {
			t.Fatalf("draining server on the fast path: %d, want 503", code)
		}
		// The timeout is parsed before the draining check, as on the
		// full path.
		if code, _ := post(t, ts.URL, "?timeout=soon", canon); code != http.StatusBadRequest {
			t.Fatalf("malformed timeout on a draining server: %d, want 400", code)
		}
	})
}

// sweepHeldAcrossEviction: a sweep element found in the memory tier
// keeps its blob until its job is born done, so an eviction in between
// — here the promotion of an earlier element read from disk, into a
// one-entry memory tier — still streams the held result. The evicted
// result is in no tier, so a second lookup would miss and queue a job
// with no config to run.
func sweepHeldAcrossEviction(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Options{Workers: 1, StoreMaxEntries: 1, StoreDir: dir})
	ctx := ctxT(t)
	onDisk, inMemory := smallConfig(120), smallConfig(121)
	blobDisk, blobMem := directBytes(t, onDisk), directBytes(t, inMemory)
	// Written by another Dir over the same directory, so the server
	// finds the blob on disk and adopts it.
	other, err := store.OpenDir(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put(hashOf(t, onDisk), blobDisk); err != nil {
		t.Fatal(err)
	}
	cfg, err := system.UnmarshalConfig([]byte(inMemory))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := cfg.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	srv.mem.Put(hashOf(t, inMemory), blobMem)

	// The disk element comes first: its acquisition promotes it into
	// the memory tier and evicts the other, already looked up.
	body := []byte("[" + onDisk + "," + string(canon) + "]")
	got := map[int]client.SweepResult{}
	summary, err := c.SweepJSON(ctx, body, func(sr client.SweepResult) error {
		got[sr.Index] = sr
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.mem.Get(hashOf(t, inMemory)); ok {
		t.Fatal("the memory tier still holds the element: nothing was evicted")
	}
	for i, want := range [][]byte{blobDisk, blobMem} {
		if sr := got[i]; sr.State != client.StateDone || !sr.Cached || !bytes.Equal(sr.Result, want) {
			t.Fatalf("element %d: %s cached=%v error %q, %d bytes", i, sr.State, sr.Cached, sr.Error, len(sr.Result))
		}
	}
	if summary.CacheHits != 2 || srv.met.executed.Value() != 0 {
		t.Fatalf("summary %+v, %d executed; want 2 hits and no run", summary, srv.met.executed.Value())
	}
}
