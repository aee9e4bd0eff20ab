package system

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	explicit.L2EntriesPerCore = 920 // NOCSTAR Table II default
	explicit.Banks = 4
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
	// The largest uint64 budgets decode; Validate rejects them.
	f.Add([]byte(`{"org":"private","cores":4,"apps":[{"workload":"gups","threads":4}],"instr_per_thread":18446744073709551615}`))
	f.Add([]byte(`{"org":"private","cores":4,"apps":[{"workload":"gups","threads":4}],"warmup_instr":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := UnmarshalConfig(doc)
		if err != nil || cfg.Validate() != nil {
			return
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
	})
}
