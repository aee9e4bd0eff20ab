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
	cfg.L2EntriesPerCore = 0
	cfg.Banks = 0
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
		{"negative l1 scale", func(c *Config) { c.L1Scale = -0.5 }, "L1Scale"},
		{"negative l2 entries", func(c *Config) { c.L2EntriesPerCore = -1 }, "L2EntriesPerCore"},
		{"negative banks", func(c *Config) { c.Banks = -4 }, "Banks"},
		{"negative fixed latency", func(c *Config) { c.FixedAccessLatency = -1 }, "FixedAccessLatency"},
		{"mono-fixed without latency", func(c *Config) { c.Org = MonolithicFixed }, "FixedAccessLatency"},
		{"negative hpcmax", func(c *Config) { c.HPCmax = -1 }, "HPCmax"},
		{"bad acquire", func(c *Config) { c.Acquire = 99 }, "Acquire"},
		{"bad ptw mode", func(c *Config) { c.PTW.Mode = 99 }, "PTW.Mode"},
		{"fixed ptw without latency", func(c *Config) { c.PTW.Mode = ptw.Fixed }, "PTW.FixedLatency"},
		{"negative pwc", func(c *Config) { c.PTW.PWCEntries = -1 }, "PTW.PWCEntries"},
		{"negative overhead", func(c *Config) { c.PTW.Overhead = -1 }, "PTW.Overhead"},
		{"negative walkers", func(c *Config) { c.PTW.Walkers = -1 }, "PTW.Walkers"},
		{"bad policy", func(c *Config) { c.Policy = 99 }, "Policy"},
		{"negative prefetch", func(c *Config) { c.PrefetchDegree = -1 }, "PrefetchDegree"},
		{"negative leaders", func(c *Config) { c.InvLeaders = -1 }, "InvLeaders"},
		{"negative qos ways", func(c *Config) { c.QoSMaxCtxWays = -1 }, "QoSMaxCtxWays"},
		{"instr over limit", func(c *Config) { c.InstrPerThread = maxInstr + 1 }, "InstrPerThread"},
		{"instr max uint64", func(c *Config) { c.InstrPerThread = math.MaxUint64 }, "InstrPerThread"},
		{"warmup over limit", func(c *Config) { c.WarmupInstr = maxInstr + 1 }, "WarmupInstr"},
		{"warmup max uint64", func(c *Config) { c.WarmupInstr = math.MaxUint64 }, "WarmupInstr"},
		{"no apps", func(c *Config) { c.Apps = nil }, "Apps"},
		{"no threads", func(c *Config) { c.Apps[0].Threads = 0 }, "Apps[0].Threads"},
		{"stream count mismatch", func(c *Config) {
			c.Apps[0].Streams = make([]workload.Stream, 2)
		}, "Apps[0].Streams"},
		{"hammer below none", func(c *Config) { c.Apps[0].HammerSlice = -2 }, "Apps[0].HammerSlice"},
		{"too many threads", func(c *Config) { c.Apps[0].Threads = 5 }, "Apps"},
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

// TestValidateInstrLimit: instruction budgets up to the limit are
// accepted.
func TestValidateInstrLimit(t *testing.T) {
	cfg := validCfg()
	cfg.InstrPerThread = maxInstr
	cfg.WarmupInstr = maxInstr
	if err := cfg.Validate(); err != nil {
		t.Fatalf("budgets at the limit rejected: %v", err)
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
