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
	"time"

	"nocstar/client"
	"nocstar/internal/metrics"
	"nocstar/internal/system"
)

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// call makes one request to base+path and returns its status and body.
func call(t *testing.T, method, base, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestStoredIDsResolve: a server restarted over a store directory
// answers for the run IDs of its predecessor from the store alone. The
// earlier run's ID is done and cached on GET, with the result of a
// direct run byte for byte; DELETE is a 200 no-op; its event stream is
// one terminal frame. An ID whose hash is not stored, and a malformed
// one, are 404 not_found on all three endpoints. Without a store
// directory, an ID pruned from the job history resolves from the
// memory tier.
func TestStoredIDsResolve(t *testing.T) {
	dir := t.TempDir()
	body := smallConfig(90)
	want := directBytes(t, body)
	ctx := ctxT(t)

	srv1, c1 := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	st, err := c1.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c1.Wait(ctx, st.ID); err != nil || final.State != client.StateDone {
		t.Fatalf("run: %v %+v", err, final)
	}
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := newTestServer(t, Options{Workers: 1, StoreDir: dir})
	base := c2.BaseURL()
	got, err := c2.GetRun(ctx, st.ID)
	if err != nil || got.ID != st.ID || got.State != client.StateDone || !got.Cached ||
		got.ConfigHash != st.ConfigHash || !bytes.Equal(got.Result, want) {
		t.Fatalf("GET of the earlier run: %v %s cached=%v, %d bytes (want %d)",
			err, got.State, got.Cached, len(got.Result), len(want))
	}
	code, raw := call(t, http.MethodDelete, base, "/v1/runs/"+st.ID)
	var canceled client.RunStatus
	if err := json.Unmarshal(raw, &canceled); code != http.StatusOK || err != nil ||
		canceled.State != client.StateDone || canceled.ID != st.ID {
		t.Fatalf("DELETE of the earlier run: %d %s", code, raw)
	}
	code, raw = call(t, http.MethodGet, base, "/v1/runs/"+st.ID+"/events")
	frames := strings.Split(strings.TrimSpace(string(raw)), "\n\n")
	if code != http.StatusOK || len(frames) != 1 {
		t.Fatalf("event stream of the earlier run: %d, %d frames: %q", code, len(frames), raw)
	}
	event, data, _ := strings.Cut(frames[0], "\n")
	var ev client.RunStatus
	if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &ev); event != "event: state" ||
		err != nil || ev.ID != st.ID || ev.State != client.StateDone || ev.Result != nil {
		t.Fatalf("event frame %q", frames[0])
	}
	if exec := srv2.met.executed.Value(); exec != 0 {
		t.Fatalf("restarted server executed %d runs resolving an ID, want 0", exec)
	}

	for _, id := range []string{"zz-000001-" + strings.Repeat("ab", 32), "run-999999-nope"} {
		for _, req := range [][2]string{
			{http.MethodGet, "/v1/runs/" + id},
			{http.MethodDelete, "/v1/runs/" + id},
			{http.MethodGet, "/v1/runs/" + id + "/events"},
		} {
			code, raw := call(t, req[0], base, req[1])
			var env struct {
				Error struct{ Code string } `json:"error"`
			}
			if err := json.Unmarshal(raw, &env); code != http.StatusNotFound || err != nil || env.Error.Code != codeNotFound {
				t.Fatalf("%s %s: %d %s, want a 404 not_found envelope", req[0], req[1], code, raw)
			}
		}
	}

	mem, cm := newTestServer(t, Options{Workers: 1, JobHistory: 1})
	pruned, err := cm.SubmitRunJSON(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cm.Wait(ctx, pruned.ID); err != nil || final.State != client.StateDone {
		t.Fatalf("memory-only run: %v %+v", err, final)
	}
	for i := 0; i < 2; i++ {
		if hit, err := cm.SubmitRunJSON(ctx, []byte(body)); err != nil || !hit.Cached {
			t.Fatalf("cache hit %d: %v cached=%v", i, err, hit.Cached)
		}
	}
	if _, ok := mem.lookup(pruned.ID); ok {
		t.Fatal("the first job is still in a one-job history")
	}
	if got, err := cm.GetRun(ctx, pruned.ID); err != nil || got.State != client.StateDone ||
		!got.Cached || !bytes.Equal(got.Result, want) {
		t.Fatalf("pruned ID on a memory-only server: %v %s cached=%v", err, got.State, got.Cached)
	}
}

// FuzzAdoptBlob drops arbitrary bytes into a store directory as a
// result blob and reads them through the server's store path: they are
// served only if they decode as a Result (and then byte for byte), a
// served blob spliced into a status and a sweep frame gives the bytes
// encoding/json gives, every refusal is counted, and a later Put of a
// real result replaces a refused blob. A good blob padded with
// whitespace, and one with a raw '<' in a string (json.Marshal writes
// \u003c), decode as Results but are refused: spliced as they are,
// they would not match.
func FuzzAdoptBlob(f *testing.F) {
	cfg, err := system.UnmarshalConfig([]byte(cfgWith(1, 500)))
	if err != nil {
		f.Fatal(err)
	}
	res, err := system.Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	padded := append(append([]byte(" \n"), good...), "\t\n"...)
	rawLT := bytes.Replace(good, []byte(`"Name":"gups"`), []byte(`"Name":"<gups>"`), 1)
	for _, refused := range [][]byte{padded, rawLT} {
		var r *system.Result
		if bytes.Equal(refused, good) || json.Unmarshal(refused, &r) != nil || r == nil || validResult(refused) {
			f.Fatalf("seed %.40q must decode as a Result and still be refused", refused)
		}
	}
	for _, seed := range [][]byte{
		good, good[:len(good)/2], append(append([]byte{}, good...), '}'), append(append([]byte{}, good...), good...),
		[]byte("null"), []byte("{}"), []byte(`{"Cycles":1}`), []byte(`{"Cycles":-1}`), []byte(`{"Bogus":1}`),
		[]byte("[]"), []byte(" "), nil, []byte("\xff\xfe"), padded, rawLT,
	} {
		f.Add(seed)
	}
	hash := strings.Repeat("ab", 32)
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, hash+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		errs := metrics.NewRegistry().AtomicCounter("store.errors")
		results, _, err := openResults(Options{StoreDir: dir}, errs)
		if err != nil {
			t.Fatal(err)
		}
		served, ok := results.Get(hash)
		if ok {
			var r *system.Result
			if err := json.Unmarshal(served, &r); err != nil || r == nil {
				t.Fatalf("served a blob that does not decode as a Result: %v", err)
			}
			if !bytes.Equal(served, blob) || errs.Value() != 0 {
				t.Fatalf("served blob altered or counted as an error (%d)", errs.Value())
			}
			st := storedStatus("x-1-"+hash, hash, served)
			sr := client.SweepResult{ID: st.ID, ConfigHash: hash, State: st.State, Cached: true}
			rec := httptest.NewRecorder()
			writeStatus(rec, http.StatusOK, st)
			var want bytes.Buffer
			json.NewEncoder(&want).Encode(st)
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatal("spliced status differs from the encoder's")
			}
			spliced, err := appendWithResult(nil, sr, served)
			sr.Result = served
			if wantFrame, merr := json.Marshal(sr); err != nil || merr != nil || !bytes.Equal(spliced, wantFrame) {
				t.Fatalf("spliced sweep result differs from json.Marshal's (%v, %v)", err, merr)
			}
			return
		}
		if errs.Value() != 1 {
			t.Fatalf("refused blob counted %d times, want 1", errs.Value())
		}
		if err := results.Put(hash, good); err != nil {
			t.Fatal(err)
		}
		reopened, _, err := openResults(Options{StoreDir: dir}, errs)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := reopened.Get(hash); !ok || !bytes.Equal(got, good) {
			t.Fatal("a real result did not replace the refused blob")
		}
	})
}
