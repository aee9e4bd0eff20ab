package system

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nocstar/internal/ptw"
	"nocstar/internal/workload"
)

// validCfg is a minimal valid config relying on defaults everywhere
// defaults exist.
func validCfg() Config {
	return Config{
		Org:   Nocstar,
		Cores: 4,
		Apps: []App{{
			Spec: workload.Spec{
				Name:           "validate-test",
				FootprintPages: 256,
				MemRefPerInstr: 0.3,
				BaseCPI:        1.2,
			},
			Threads:     4,
			HammerSlice: HammerNone,
		}},
		InstrPerThread: 1000,
		Seed:           1,
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Zero values that Normalized fills are valid, not errors.
	cfg := validCfg()
	cfg.SMT = 0
	cfg.L1Scale = 0
	cfg.HPCmax = 0
	cfg.Seed = 0
	cfg.InstrPerThread = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("defaultable zeros rejected: %v", err)
	}
}

// TestValidateFields drives every rejection path and checks the typed
// field name each one reports.
func TestValidateFields(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"org out of range", func(c *Config) { c.Org = IdealShared + 1 }, "Org"},
		{"org negative", func(c *Config) { c.Org = -1 }, "Org"},
		{"no cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"too many cores", func(c *Config) { c.Cores = maxCores + 1 }, "Cores"},
		{"negative smt", func(c *Config) { c.SMT = -2 }, "SMT"},
		{"smt wraps the capacity", func(c *Config) { c.SMT = 1 << 62 }, "SMT"},
		{"nan l1 scale", func(c *Config) { c.L1Scale = math.NaN() }, "L1Scale"},
		{"negative l1 scale", func(c *Config) { c.L1Scale = -0.5 }, "L1Scale"},
		{"negative fixed latency", func(c *Config) { c.FixedAccessLatency = -1 }, "FixedAccessLatency"},
		{"mono-fixed without latency", func(c *Config) { c.Org = MonolithicFixed }, "FixedAccessLatency"},
		{"negative hpcmax", func(c *Config) { c.HPCmax = -1 }, "HPCmax"},
		{"hpcmax overflows the traversal", func(c *Config) { c.HPCmax = math.MaxInt }, "HPCmax"},
		{"bad acquire", func(c *Config) { c.Acquire = 99 }, "Acquire"},
		{"bad ptw mode", func(c *Config) { c.PTW.Mode = 99 }, "PTW.Mode"},
		{"fixed ptw without latency", func(c *Config) { c.PTW.Mode = ptw.Fixed }, "PTW.FixedLatency"},
		{"bad policy", func(c *Config) { c.Policy = 99 }, "Policy"},
		{"negative prefetch", func(c *Config) { c.PrefetchDegree = -1 }, "PrefetchDegree"},
		{"negative leaders", func(c *Config) { c.InvLeaders = -1 }, "InvLeaders"},
		{"more leaders than cores", func(c *Config) { c.InvLeaders = math.MaxInt }, "InvLeaders"},
		{"instr over limit", func(c *Config) { c.InstrPerThread = maxInstr + 1 }, "InstrPerThread"},
		{"instr max uint64", func(c *Config) { c.InstrPerThread = math.MaxUint64 }, "InstrPerThread"},
		{"no apps", func(c *Config) { c.Apps = nil }, "Apps"},
		{"no threads", func(c *Config) { c.Apps[0].Threads = 0 }, "Apps[0].Threads"},
		{"stream count mismatch", func(c *Config) {
			c.Apps[0].Streams = make([]workload.Stream, 2)
		}, "Apps[0].Streams"},
		{"hammer below none", func(c *Config) { c.Apps[0].HammerSlice = -2 }, "Apps[0].HammerSlice"},
		{"no footprint", func(c *Config) { c.Apps[0].Spec.FootprintPages = 0 }, "Apps[0].Spec.FootprintPages"},
		{"footprint past the vpn field", func(c *Config) { c.Apps[0].Spec.FootprintPages = 1 << 40 }, "Apps[0].Spec.FootprintPages"},
		{"footprint 2^62", func(c *Config) { c.Apps[0].Spec.FootprintPages = 1 << 62 }, "Apps[0].Spec.FootprintPages"},
		{"negative shared frac", func(c *Config) { c.Apps[0].Spec.SharedFrac = -1 }, "Apps[0].Spec.SharedFrac"},
		{"shared frac over 1", func(c *Config) { c.Apps[0].Spec.SharedFrac = 1.5 }, "Apps[0].Spec.SharedFrac"},
		{"nan shared frac", func(c *Config) { c.Apps[0].Spec.SharedFrac = math.NaN() }, "Apps[0].Spec.SharedFrac"},
		{"nan hot prob", func(c *Config) { c.Apps[0].Spec.HotProb = math.NaN() }, "Apps[0].Spec.HotProb"},
		{"zipf theta 5", func(c *Config) { c.Apps[0].Spec.ZipfTheta = 5 }, "Apps[0].Spec.ZipfTheta"},
		{"zipf theta 1", func(c *Config) { c.Apps[0].Spec.ZipfTheta = 1 }, "Apps[0].Spec.ZipfTheta"},
		{"hot frac 2", func(c *Config) { c.Apps[0].Spec.HotFrac = 2 }, "Apps[0].Spec.HotFrac"},
		{"negative repeat prob", func(c *Config) { c.Apps[0].Spec.RepeatProb = -0.1 }, "Apps[0].Spec.RepeatProb"},
		{"superpage frac 5", func(c *Config) { c.Apps[0].Spec.SuperpageFrac = 5 }, "Apps[0].Spec.SuperpageFrac"},
		{"no refs per instr", func(c *Config) { c.Apps[0].Spec.MemRefPerInstr = 0 }, "Apps[0].Spec.MemRefPerInstr"},
		{"refs per instr under the bound", func(c *Config) { c.Apps[0].Spec.MemRefPerInstr = minMemRefPerInstr / 2 }, "Apps[0].Spec.MemRefPerInstr"},
		{"cpi under the bound", func(c *Config) { c.Apps[0].Spec.BaseCPI = minBaseCPI / 2 }, "Apps[0].Spec.BaseCPI"},
		{"refs per instr past the bound", func(c *Config) { c.Apps[0].Spec.MemRefPerInstr = maxMemRefPerInstr * 2 }, "Apps[0].Spec.MemRefPerInstr"},
		{"negative cpi", func(c *Config) { c.Apps[0].Spec.BaseCPI = -1 }, "Apps[0].Spec.BaseCPI"},
		{"infinite cpi", func(c *Config) { c.Apps[0].Spec.BaseCPI = math.Inf(1) }, "Apps[0].Spec.BaseCPI"},
		{"prefetch 10^6", func(c *Config) { c.PrefetchDegree = 1_000_000 }, "PrefetchDegree"},
		{"fixed access latency 10^18", func(c *Config) {
			c.Org, c.FixedAccessLatency = MonolithicFixed, 1_000_000_000_000_000_000
		}, "FixedAccessLatency"},
		{"fixed walk latency 10^18", func(c *Config) {
			c.PTW = ptw.Config{Mode: ptw.Fixed, FixedLatency: 1_000_000_000_000_000_000}
		}, "PTW.FixedLatency"},
		{"storm pages 2^62", func(c *Config) { c.Storm = &StormConfig{PromoteDemoteInterval: 1000, Pages: 1 << 62} }, "Storm.Pages"},
		{"shootdown every cycle", func(c *Config) { c.ShootdownInterval = 1 }, "ShootdownInterval"},
		{"shootdown under the floor", func(c *Config) { c.ShootdownInterval = minDisturbInterval - 1 }, "ShootdownInterval"},
		{"context switch every cycle", func(c *Config) {
			c.Storm = &StormConfig{ContextSwitchInterval: 1, Pages: 4096}
		}, "Storm.ContextSwitchInterval"},
		{"promote/demote every cycle", func(c *Config) {
			c.Storm = &StormConfig{PromoteDemoteInterval: 1, Pages: 4096}
		}, "Storm.PromoteDemoteInterval"},
		{"too many threads", func(c *Config) { c.Apps[0].Threads = 5 }, "Apps"},
		{"thread sum wraps", func(c *Config) {
			c.Apps[0].Threads = 1 << 62
			c.Apps = append(c.Apps, c.Apps[0])
		}, "Apps[1].Threads"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validCfg()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("want *ValidationError, got %T: %v", err, err)
			}
			for _, f := range ve.Fields {
				if f.Field == tc.field {
					return
				}
			}
			t.Fatalf("no FieldError for %q in %v", tc.field, ve.Fields)
		})
	}
}

// TestValidateBounds pins every size bound Validate enforces: the
// largest accepted value builds with New on a small machine, and the
// next value is rejected with a FieldError naming the field.
func TestValidateBounds(t *testing.T) {
	cases := []struct {
		field        string
		atMax, above func(*Config)
		// builds is false where the bound is unreachable on a small
		// machine: maxThreads threads need maxCores x maxSMT hardware
		// threads, so at 4 cores the capacity check rejects it instead.
		builds bool
	}{
		{"SMT", func(c *Config) { c.SMT = maxSMT }, func(c *Config) { c.SMT = maxSMT + 1 }, true},
		{"Apps[0].Threads", func(c *Config) { c.Apps[0].Threads = maxThreads },
			func(c *Config) { c.Apps[0].Threads = maxThreads + 1 }, false},
		{"L1Scale", func(c *Config) { c.L1Scale = maxL1Scale },
			func(c *Config) { c.L1Scale = math.Nextafter(maxL1Scale, math.Inf(1)) }, true},
		{"Apps[0].Spec.FootprintPages", func(c *Config) { c.Apps[0].Spec.FootprintPages = maxFootprintPages },
			func(c *Config) { c.Apps[0].Spec.FootprintPages = maxFootprintPages + 1 }, true},
		{"Storm.Pages", func(c *Config) { c.Storm = &StormConfig{PromoteDemoteInterval: 1000, Pages: maxStormPages} },
			func(c *Config) { c.Storm = &StormConfig{PromoteDemoteInterval: 1000, Pages: maxStormPages + 1} }, true},
		{"HPCmax", func(c *Config) { c.HPCmax = maxHPCmax },
			func(c *Config) { c.HPCmax = maxHPCmax + 1 }, true},
		{"InvLeaders", func(c *Config) { c.InvLeaders = c.Cores },
			func(c *Config) { c.InvLeaders = c.Cores + 1 }, true},
		{"PrefetchDegree", func(c *Config) { c.PrefetchDegree = maxPrefetchDegree },
			func(c *Config) { c.PrefetchDegree = maxPrefetchDegree + 1 }, true},
		{"FixedAccessLatency", func(c *Config) { c.FixedAccessLatency = maxFixedLatency },
			func(c *Config) { c.FixedAccessLatency = maxFixedLatency + 1 }, true},
		{"PTW.FixedLatency", func(c *Config) { c.PTW = ptw.Config{Mode: ptw.Fixed, FixedLatency: maxFixedLatency} },
			func(c *Config) { c.PTW = ptw.Config{Mode: ptw.Fixed, FixedLatency: maxFixedLatency + 1} }, true},
		{"Apps[0].Spec.MemRefPerInstr", func(c *Config) { c.Apps[0].Spec.MemRefPerInstr = maxMemRefPerInstr },
			func(c *Config) { c.Apps[0].Spec.MemRefPerInstr = math.Nextafter(maxMemRefPerInstr, math.Inf(1)) }, true},
		{"Apps[0].Spec.BaseCPI", func(c *Config) { c.Apps[0].Spec.BaseCPI = maxBaseCPI },
			func(c *Config) { c.Apps[0].Spec.BaseCPI = math.Nextafter(maxBaseCPI, math.Inf(1)) }, true},
	}
	names := func(err error, field string) bool {
		var ve *ValidationError
		if !errors.As(err, &ve) {
			return false
		}
		for _, f := range ve.Fields {
			if f.Field == field {
				return true
			}
		}
		return false
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			for _, org := range []Org{Private, MonolithicMesh, Nocstar} {
				cfg := validCfg()
				cfg.Org = org
				cfg.PTW = ptw.DefaultConfig()
				tc.atMax(&cfg)
				err := cfg.Validate()
				if names(err, tc.field) {
					t.Fatalf("%v: largest accepted value rejected: %v", org, err)
				}
				if !tc.builds {
					continue
				}
				if err != nil {
					t.Fatalf("%v: %v", org, err)
				}
				if _, err := New(cfg); err != nil {
					t.Fatalf("%v: New: %v", org, err)
				}
			}
			cfg := validCfg()
			cfg.PTW = ptw.DefaultConfig()
			tc.above(&cfg)
			if err := cfg.Validate(); !names(err, tc.field) {
				t.Fatalf("value past the bound: got %v, want a FieldError naming %s", err, tc.field)
			}
		})
	}
}

// TestValidateCoreLimit: core counts up to the limit are accepted.
func TestValidateCoreLimit(t *testing.T) {
	for _, cores := range []int{1024, maxCores} {
		cfg := validCfg()
		cfg.Cores = cores
		cfg.Apps[0].Threads = cores
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%d cores rejected: %v", cores, err)
		}
	}
}

// TestValidateInstrLimit: an instruction budget at the limit is
// accepted.
func TestValidateInstrLimit(t *testing.T) {
	cfg := validCfg()
	cfg.InstrPerThread = maxInstr
	if err := cfg.Validate(); err != nil {
		t.Fatalf("budget at the limit rejected: %v", err)
	}
}

// TestValidateGathersAll checks the error lists every problem, not just
// the first.
func TestValidateGathersAll(t *testing.T) {
	cfg := validCfg()
	cfg.Cores = 0
	cfg.PrefetchDegree = -1
	cfg.Apps[0].Threads = 0
	err := cfg.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %v", err)
	}
	if len(ve.Fields) < 3 {
		t.Fatalf("want >= 3 field errors, got %d: %v", len(ve.Fields), ve.Fields)
	}
	if !strings.Contains(ve.Error(), "Cores") || !strings.Contains(ve.Error(), "PrefetchDegree") {
		t.Fatalf("Error() does not name the fields: %s", ve.Error())
	}
}

// TestRunRejectsInvalid checks the typed error surfaces through Run.
func TestRunRejectsInvalid(t *testing.T) {
	cfg := validCfg()
	cfg.Cores = -3
	_, err := Run(cfg)
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("Run of invalid config: want *ValidationError, got %v", err)
	}
}
