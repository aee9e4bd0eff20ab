package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nocstar"
	"nocstar/client"
	"nocstar/internal/server"
	"nocstar/internal/system"
	"nocstar/internal/trace"
	"nocstar/internal/workload"
)

// smallDoc finishes in well under a second.
const smallDoc = `{"org": "nocstar", "cores": 4,
	"apps": [{"workload": "gups", "threads": 4}],
	"instr_per_thread": 3000, "seed": 1}`

// runCmd runs the command with the given arguments and stdin and
// returns its exit status, stdout and stderr.
func runCmd(stdin string, args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, "run.trc", buf.Bytes())
}

// want renders what the command should print for cfg: the report of
// its run, then the speedup over the private baseline run bcfg.
func want(t *testing.T, cfg, bcfg system.Config, tr *trace.Trace) string {
	t.Helper()
	r, err := nocstar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nocstar.Run(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, cfg, tr, r)
	fmt.Fprintf(&out, "\nspeedup vs private L2 TLBs: %.3fx (misses eliminated: %.1f%%)\n",
		r.SpeedupOver(b), 100*r.MissesEliminatedVs(b))
	return out.String()
}

// TestDocumentMatchesLibrary: a document read from a file and from
// stdin prints the same bytes: its canonical hash, then the report of
// nocstar.Run on the decoded document and the private-baseline speedup.
func TestDocumentMatchesLibrary(t *testing.T) {
	code, fromFile, stderr := runCmd("", writeFile(t, "run.json", []byte(smallDoc)))
	if code != 0 || stderr != "" {
		t.Fatalf("file: exit %d, stderr %q", code, stderr)
	}
	code, fromStdin, stderr := runCmd(smallDoc, "-")
	if code != 0 || stderr != "" {
		t.Fatalf("stdin: exit %d, stderr %q", code, stderr)
	}
	if fromFile != fromStdin {
		t.Fatalf("file and stdin differ:\n%s\n---\n%s", fromFile, fromStdin)
	}

	cfg, err := nocstar.UnmarshalConfig([]byte(smallDoc))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cfg.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.Org = system.Private
	if w := "config sha256 " + hash + "\n" + want(t, cfg, bcfg, nil); fromFile != w {
		t.Fatalf("output differs from the library run:\n%s\n---\n%s", fromFile, w)
	}
}

// TestHashMatchesServer: the printed hash is the config_hash the HTTP
// service answers for the same document.
func TestHashMatchesServer(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := client.New(ts.URL).SubmitRunJSON(ctx, []byte(smallDoc))
	if err != nil {
		t.Fatal(err)
	}
	_, out, _ := runCmd(smallDoc, "-")
	if line := strings.SplitN(out, "\n", 2)[0]; line != "config sha256 "+st.ConfigHash {
		t.Fatalf("printed %q, server config_hash %s", line, st.ConfigHash)
	}
}

// TestReplayMatchesRun: a document with a trace prints the report of
// system.Run with the trace's replayers attached as the app's streams,
// and the baseline replays the trace from its start too. A replayed run
// has no canonical form, so no hash line.
func TestReplayMatchesRun(t *testing.T) {
	spec, _ := workload.ByName("canneal")
	tr := trace.Capture(spec, 4, 2000, 3)
	path := writeTrace(t, tr)
	doc := `{"org": "distributed", "cores": 4, "apps": [{"workload": "canneal", "threads": 4}],
		"instr_per_thread": 3000, "seed": 1}`
	code, out, stderr := runCmd(doc, "-", path)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}

	attach := func(cfg system.Config) system.Config {
		app := cfg.Apps[0]
		app.Streams = make([]workload.Stream, len(tr.Threads))
		for i := range app.Streams {
			r, err := tr.NewReplayer(i)
			if err != nil {
				t.Fatal(err)
			}
			app.Streams[i] = r
		}
		cfg.Apps = []system.App{app}
		return cfg
	}
	cfg, err := nocstar.UnmarshalConfig([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.Org = system.Private
	if w := want(t, attach(cfg), attach(bcfg), tr); out != w {
		t.Fatalf("replay differs from system.Run with replayers:\n%s\n---\n%s", out, w)
	}
}

// TestRejects: every document or trace the front door cannot run exits
// 2, prints nothing on stdout, and names the problem on stderr. The
// oversized footprint, storm and trace page once panicked the run.
func TestRejects(t *testing.T) {
	spec, _ := workload.ByName("canneal")
	trace4 := writeTrace(t, trace.Capture(spec, 4, 100, 1))
	hostile := writeTrace(t, &trace.Trace{Name: "canneal", Threads: [][]uint64{{1, 1 << 50}}})
	const huge = "4611686018427387904" // 2^62
	cases := []struct {
		name, doc, trace, msg string
	}{
		{"unknown field", `{"org": "nocstar", "coars": 4}`, "", `unknown field "coars"`},
		{"removed l2 size", `{"org": "nocstar", "cores": 4, "l2_entries_per_core": 920,
			"apps": [{"workload": "gups", "threads": 4}]}`, "", `unknown field "l2_entries_per_core"`},
		{"invalid field", `{"org": "nocstar", "cores": 0, "apps": [{"workload": "gups", "threads": 4}]}`,
			"", "Cores: must be positive"},
		{"footprint 2^62", `{"org": "nocstar", "cores": 4, "apps": [{"spec": {"name": "x", "footprint_pages": ` + huge +
			`, "mem_ref_per_instr": 0.3, "base_cpi": 1}, "threads": 4}]}`, "", "Apps[0].Spec.FootprintPages"},
		{"storm pages 2^62", `{"org": "nocstar", "cores": 4, "apps": [{"workload": "gups", "threads": 4}],
			"storm": {"promote_demote_interval": 1000, "pages": ` + huge + `}}`, "", "Storm.Pages"},
		{"shootdown every cycle", `{"org": "nocstar", "cores": 4, "apps": [{"workload": "gups", "threads": 4}],
			"shootdown_interval": 1}`, "", "ShootdownInterval"},
		{"two apps with a trace", `{"org": "nocstar", "cores": 4, "apps": [{"workload": "gups", "threads": 2},
			{"workload": "canneal", "threads": 2}]}`, trace4, "exactly one app"},
		{"thread count mismatch", `{"org": "nocstar", "cores": 4, "apps": [{"workload": "canneal", "threads": 2}]}`,
			trace4, "Apps[0].Streams: 4 streams for 2 threads"},
		{"trace page past the vpn limit", `{"org": "nocstar", "cores": 4, "apps": [{"workload": "canneal", "threads": 1}]}`,
			hostile, "thread 0 ref 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-"}
			if tc.trace != "" {
				args = append(args, tc.trace)
			}
			code, out, stderr := runCmd(tc.doc, args...)
			if code != 2 || out != "" || !strings.Contains(stderr, tc.msg) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming %q", code, out, stderr, tc.msg)
			}
		})
	}
	// No document, or flags from before the document was the input.
	for _, args := range [][]string{nil, {"-org", "nocstar"}} {
		if code, _, stderr := runCmd("", args...); code != 2 || !strings.HasPrefix(stderr, "usage:") {
			t.Fatalf("%q: exit %d, stderr %q; want exit 2 and the usage", args, code, stderr)
		}
	}
}
