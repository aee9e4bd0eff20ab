package experiments

import (
	"fmt"
	"testing"
)

// TestHeadlineClaims gates the paper's headline shape (EXPERIMENTS.md
// "Headline claims"), one row per claim, on the Fig. 14 setting: the
// four-workload suite with transparent superpages at 16, 32 and 64
// cores, each organization's speedup averaged over the suite against
// the private-L2-TLB baseline. At -instr 40000 the whole sweep takes
// about 7 s on 2 cores.
func TestHeadlineClaims(t *testing.T) {
	o := Options{
		Instr:     40_000,
		Seed:      1,
		Workloads: []string{"canneal", "graph500", "gups", "olio"},
	}
	avg := map[int]map[string]float64{}
	for _, cores := range []int{16, 32, 64} {
		g := figPerf(o, "", cores, true)
		avg[cores] = map[string]float64{}
		for _, org := range g.Configs {
			avg[cores][org] = g.Average(org)
		}
		t.Logf("%d cores: %v", cores, avg[cores])
	}
	claims := []struct {
		name  string
		cores []int
		// holds reports whether the claim holds at one core count, and
		// the measured values if it does not.
		holds func(a map[string]float64) (bool, string)
	}{
		{"NOCSTAR beats distributed", []int{16, 32, 64}, func(a map[string]float64) (bool, string) {
			return a["NOCSTAR"] > a["Distributed"],
				fmt.Sprintf("NOCSTAR %.3f, distributed %.3f", a["NOCSTAR"], a["Distributed"])
		}},
		{"distributed beats private", []int{16, 32, 64}, func(a map[string]float64) (bool, string) {
			return a["Distributed"] > 1, fmt.Sprintf("distributed %.3f", a["Distributed"])
		}},
		{"monolithic loses to private", []int{32, 64}, func(a map[string]float64) (bool, string) {
			return a["Monolithic"] < 1, fmt.Sprintf("monolithic %.3f", a["Monolithic"])
		}},
		{"NOCSTAR within 95% of ideal", []int{16, 32, 64}, func(a map[string]float64) (bool, string) {
			return a["NOCSTAR"] >= 0.95*a["Ideal"],
				fmt.Sprintf("NOCSTAR %.3f, ideal %.3f", a["NOCSTAR"], a["Ideal"])
		}},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			for _, cores := range c.cores {
				if ok, got := c.holds(avg[cores]); !ok {
					t.Errorf("%d cores: %s", cores, got)
				}
			}
		})
	}
}
