package system

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nocstar/internal/check"
	"nocstar/internal/noc"
	"nocstar/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/config.golden.json")

// goldenCfg exercises every canonical-encoding branch: explicit spec,
// non-default enums, a storm co-run, and a hammered slice.
func goldenCfg() Config {
	return Config{
		Org:            Nocstar,
		Cores:          32,
		Acquire:        noc.RoundTripAcquire,
		Policy:         WalkAtRemote,
		PrefetchDegree: 2,
		InvLeaders:     4,
		THP:            true,
		Apps: []App{
			{
				Spec: workload.Spec{
					Name:           "golden",
					FootprintPages: 1 << 18,
					SharedFrac:     0.4,
					HotFrac:        0.1,
					HotProb:        0.7,
					MemRefPerInstr: 0.35,
					BaseCPI:        1.1,
					SuperpageFrac:  0.3,
				},
				Threads:     24,
				HammerSlice: HammerNone,
			},
			{
				Spec: workload.Spec{
					Name:           "hammer",
					FootprintPages: 1 << 12,
					MemRefPerInstr: 0.5,
					BaseCPI:        1.0,
				},
				Threads:     8,
				HammerSlice: 5,
			},
		},
		InstrPerThread:    100_000,
		ShootdownInterval: 250_000,
		Storm: &StormConfig{
			ContextSwitchInterval: 1_000_000,
			PromoteDemoteInterval: 400_000,
			Pages:                 4096,
		},
		Seed: 7,
	}
}

// TestCanonicalGolden pins the canonical encoding byte-for-byte. If
// this test fails because the layout deliberately changed, bump
// ConfigSchemaVersion and regenerate with -update-golden.
func TestCanonicalGolden(t *testing.T) {
	got, err := goldenCfg().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "config.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical encoding drifted from golden.\n got: %s\nwant: %s\n"+
			"If the change is intentional, bump ConfigSchemaVersion and rerun with -update-golden.",
			got, want)
	}
}

// TestCanonicalDefaultsExplicit pins the property the cache key relies
// on: a config spelling defaults explicitly encodes identically to one
// leaving them zero.
func TestCanonicalDefaultsExplicit(t *testing.T) {
	minimal := goldenCfg()
	explicit := minimal
	explicit.SMT = 1
	explicit.L1Scale = 1
	explicit.HPCmax = 16

	a, err := minimal.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("defaulted and explicit configs encode differently:\n%s\n%s", a, b)
	}
	ha, _ := minimal.CanonicalHash()
	hb, _ := explicit.CanonicalHash()
	if ha != hb || ha == "" {
		t.Fatalf("hashes differ: %s vs %s", ha, hb)
	}
}

// TestCanonicalRoundTrip checks decode(encode(cfg)) re-encodes to the
// same bytes.
func TestCanonicalRoundTrip(t *testing.T) {
	first, err := goldenCfg().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalConfig(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := decoded.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip drifted:\n%s\n%s", first, second)
	}
}

// shorthandDoc names a suite workload instead of carrying a spec.
const shorthandDoc = `{
	"schema": 1, "org": "nocstar", "cores": 4,
	"apps": [{"workload": "gups", "threads": 4}]
}`

func TestUnmarshalWorkloadShorthand(t *testing.T) {
	cfg, err := UnmarshalConfig([]byte(shorthandDoc))
	if err != nil {
		t.Fatal(err)
	}
	want, ok := workload.ByName("gups")
	if !ok {
		t.Fatal("suite lost gups")
	}
	if cfg.Apps[0].Spec != want {
		t.Fatalf("shorthand resolved to %+v, want %+v", cfg.Apps[0].Spec, want)
	}
	if cfg.Apps[0].HammerSlice != HammerNone {
		t.Fatalf("omitted hammer_slice decoded to %d, want HammerNone", cfg.Apps[0].HammerSlice)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("decoded config invalid: %v", err)
	}
}

// TestPartialPTWBlock pins what a partial Variable-mode PTW block means:
// a fixed latency is cleared, so it hashes like the empty block. The
// geometry keys schema 6 removed are refused (unmarshalRejects).
func TestPartialPTWBlock(t *testing.T) {
	doc := func(ptwBlock string) string {
		return `{"org": "nocstar", "cores": 4,
			"apps": [{"workload": "gups", "threads": 4}],
			"ptw": ` + ptwBlock + `}`
	}
	hash := func(d string) string {
		t.Helper()
		cfg, err := UnmarshalConfig([]byte(d))
		if err != nil {
			t.Fatal(err)
		}
		h, err := cfg.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if a, b := hash(doc(`{"fixed_latency": 40}`)), hash(doc(`{}`)); a != b {
		t.Fatalf("variable block with a fixed latency hashes %s, empty block %s", a, b)
	}
}

// unmarshalRejects are documents UnmarshalConfig must refuse, with a
// fragment the error must mention.
var unmarshalRejects = []struct {
	name, doc, want string
}{
	{"unknown field", `{"org": "nocstar", "coars": 4}`, "coars"},
	{"newer schema", `{"schema": 99, "org": "nocstar"}`, "schema 99"},
	{"unknown org", `{"org": "toroidal"}`, `org "toroidal"`},
	{"unknown acquire", `{"acquire": "psychic"}`, "acquire"},
	{"unknown policy", `{"policy": "nearest-pub"}`, "policy"},
	{"unknown ptw mode", `{"ptw": {"mode": "teleport"}}`, "PTW mode"},
	{"unknown workload", `{"apps": [{"workload": "nope", "threads": 1}]}`, `workload "nope"`},
	{"workload and spec", `{"apps": [{"workload": "gups", "spec": {"name": "x"}, "threads": 1}]}`, "pick one"},
	{"neither workload nor spec", `{"apps": [{"threads": 1}]}`, "needs a workload"},
	{"trailing data", `{"org": "nocstar"} {"org": "private"}`, "trailing"},
	// Schema 4 dropped topology, placement, placement_seed and
	// qos_max_ctx_ways; a document naming one is refused, even at its
	// old default, rather than silently simulating without it.
	{"removed fabric field", `{"org": "distributed", "topology": "mesh"}`, `unknown field "topology"`},
	// Schema 5 dropped warmup_instr (every run is cold) and banks (the
	// bank count follows from the core count).
	{"removed warmup field", `{"org": "nocstar", "warmup_instr": 0}`, `unknown field "warmup_instr"`},
	{"removed banks field", `{"org": "mono-mesh", "banks": 4}`, `unknown field "banks"`},
	// Schema 6 dropped l2_entries_per_core (the size follows from the
	// organization) and the walker's geometry.
	{"removed l2 entries field", `{"org": "nocstar", "l2_entries_per_core": 920}`, `unknown field "l2_entries_per_core"`},
	{"removed pwc entries field", `{"ptw": {"pwc_entries": 32}}`, `unknown field "pwc_entries"`},
	{"removed overhead field", `{"ptw": {"overhead": 15}}`, `unknown field "overhead"`},
	{"removed walkers field", `{"ptw": {"walkers": 2}}`, `unknown field "walkers"`},
}

func TestUnmarshalRejects(t *testing.T) {
	for _, tc := range unmarshalRejects {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalConfig([]byte(tc.doc))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCanonicalRejectsLiveState: configs carrying state the value does
// not capture have no canonical encoding (and therefore no cache key).
func TestCanonicalRejectsLiveState(t *testing.T) {
	cfg := goldenCfg()
	cfg.Apps[0].Streams = make([]workload.Stream, 24)
	if _, err := cfg.MarshalCanonical(); err == nil {
		t.Fatal("config with live streams encoded")
	}
}

// FuzzUnmarshalConfig feeds arbitrary documents through the config front
// door. Decoding and validating must never panic, and a config that
// validates must survive MarshalCanonical -> UnmarshalConfig with its
// CanonicalHash unchanged, so the cache key of a submitted document is
// the key of its canonical form.
func FuzzUnmarshalConfig(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "config.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(shorthandDoc))
	for _, tc := range unmarshalRejects {
		f.Add([]byte(tc.doc))
	}
	// The largest uint64 budget decodes; Validate rejects it. The
	// warmup_instr budget and the 2^62 banks (which once passed and
	// panicked New) name fields schema 5 removed; decoding rejects them.
	f.Add([]byte(`{"org":"private","cores":4,"apps":[{"workload":"gups","threads":4}],"instr_per_thread":18446744073709551615}`))
	f.Add([]byte(`{"org":"private","cores":4,"apps":[{"workload":"gups","threads":4}],"warmup_instr":18446744073709551615}`))
	// Two apps of 2^62 threads once wrapped the thread sum negative and
	// passed the capacity check.
	f.Add([]byte(`{"org":"private","cores":4,"apps":[{"workload":"gups","threads":4611686018427387904},{"workload":"gups","threads":4611686018427387904}]}`))
	f.Add([]byte(`{"org":"mono-mesh","cores":4,"banks":4611686018427387904,"apps":[{"workload":"gups","threads":4}]}`))
	// Footprints of 2^40 and 2^62 pages, a footprint of 0, a shared
	// fraction of -1 and storm pages of 2^62 once passed and panicked the
	// run.
	for _, spec := range []string{
		`"footprint_pages":1099511627776,"shared_frac":0`,
		`"footprint_pages":4611686018427387904,"shared_frac":0.5`,
		`"footprint_pages":0,"shared_frac":0.5`,
		`"footprint_pages":1024,"shared_frac":-1`,
		`"footprint_pages":1024,"shared_frac":1.5`,
		// Spec fields outside their ranges once ran as if valid.
		`"footprint_pages":1024,"hot_prob":-1`,
		`"footprint_pages":1024,"zipf_theta":5`,
		`"footprint_pages":1024,"hot_frac":2`,
		`"footprint_pages":1024,"superpage_frac":5`,
	} {
		f.Add([]byte(`{"org":"nocstar","cores":4,"apps":[{"spec":{"name":"x",` + spec +
			`,"mem_ref_per_instr":0.3,"base_cpi":1},"threads":4}]}`))
	}
	// No references per instruction, or a negative CPI, ran into the
	// cycle cap.
	for _, rates := range []string{`"mem_ref_per_instr":0,"base_cpi":1`, `"mem_ref_per_instr":0.3,"base_cpi":-1`} {
		f.Add([]byte(`{"org":"nocstar","cores":4,"apps":[{"spec":{"name":"x","footprint_pages":1024,` + rates +
			`},"threads":4}]}`))
	}
	f.Add([]byte(`{"org":"nocstar","cores":4,"apps":[{"workload":"gups","threads":4}],"storm":{"promote_demote_interval":1000,"pages":4611686018427387904}}`))
	// A prefetch degree of 10^6 held a worker for minutes inside one
	// event; fixed latencies of 10^18 ran to the cycle cap.
	f.Add([]byte(`{"org":"nocstar","cores":4,"apps":[{"workload":"gups","threads":4}],"prefetch_degree":1000000}`))
	f.Add([]byte(`{"org":"mono-fixed","cores":4,"fixed_access_latency":1000000000000000000,"apps":[{"workload":"gups","threads":4}]}`))
	f.Add([]byte(`{"org":"nocstar","cores":4,"ptw":{"mode":"fixed","fixed_latency":1000000000000000000},"apps":[{"workload":"gups","threads":4}]}`))
	// The largest HPCmax overflowed the traversal arithmetic and panicked
	// the run; leader counts past the core count named nothing new.
	f.Add([]byte(`{"org":"nocstar","cores":16,"hpc_max":9223372036854775807,"apps":[{"workload":"canneal","threads":16}]}`))
	f.Add([]byte(`{"org":"nocstar","cores":16,"hpc_max":1048576,"apps":[{"workload":"canneal","threads":16}]}`))
	f.Add([]byte(`{"org":"nocstar","cores":4,"inv_leaders":9223372036854775807,"apps":[{"workload":"gups","threads":4}]}`))
	f.Add([]byte(`{"org":"nocstar","cores":4,"inv_leaders":4,"apps":[{"workload":"gups","threads":4}]}`))
	// Every organization on 8 cores with the golden's features: a hammer
	// app, remote walks, prefetch, superpages, shootdowns and the storm.
	for _, org := range OrgTokens() {
		f.Add([]byte(`{"org":"` + org + `","cores":8,"fixed_access_latency":20,"acquire":"round-trip","policy":"remote","prefetch_degree":2,` +
			`"inv_leaders":4,"thp":true,"apps":[{"workload":"canneal","threads":6},{"workload":"gups","threads":2,"hammer_slice":5}],` +
			`"shootdown_interval":20000,"storm":{"context_switch_interval":30000,"promote_demote_interval":10000,"pages":512},"seed":7}`))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := UnmarshalConfig(doc)
		if err != nil || cfg.Validate() != nil {
			return
		}
		// What Validate accepts, New builds. Small machines keep the
		// check cheap.
		if cfg.Cores <= 64 {
			if _, err := New(cfg); err != nil {
				t.Fatalf("validated config does not build: %v", err)
			}
		}
		canon, err := cfg.MarshalCanonical()
		if err != nil {
			t.Fatalf("valid config has no canonical encoding: %v", err)
		}
		again, err := UnmarshalConfig(canon)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, canon)
		}
		h1, err1 := cfg.CanonicalHash()
		h2, err2 := again.CanonicalHash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("round trip changed the hash (%v, %v):\n%s", err1, err2, canon)
		}
		// What New builds, runs to an answer: a short run of a copy
		// under the checker must neither panic, violate an invariant,
		// fail, nor overstay its deadline by long.
		if cfg.Cores <= 8 {
			fuzzRun(t, cfg, canon)
		}
	})
}

// fuzzRun runs a copy of cfg, capped at 2000 instructions per thread,
// under the checker with a 2 s deadline. Only the deadline may stop it,
// and it must return soon after.
func fuzzRun(t *testing.T, cfg Config, canon []byte) {
	const instrCap, deadline = 2000, 2 * time.Second
	run := cfg
	if run.InstrPerThread == 0 || run.InstrPerThread > instrCap {
		run.InstrPerThread = instrCap
	}
	run.Check = check.New()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, run)
	if late := time.Since(start) - deadline; late > deadline {
		t.Fatalf("run returned %v past its deadline:\n%s", late, canon)
	}
	if err != nil && !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("run failed: %v\n%s", err, canon)
	}
	if !run.Check.Ok() {
		t.Fatalf("checker: %v\n%s", run.Check.Err(), canon)
	}
}
