package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"nocstar/internal/experiments"
	"nocstar/internal/ptw"
	"nocstar/internal/stats"
	"nocstar/internal/system"
)

// tinyEnv is a workload run at test scale.
func tinyEnv(t *testing.T, wl string) *env {
	return &env{wl: wl, seed: 1, window: 300 * time.Millisecond, sz: tinySizes, work: t.TempDir()}
}

// TestMetricsMatchBenchmarkJSON requires every metric the benchmark can
// print to be a legal name listed in BENCHMARK.json with the same unit and
// direction, and every listed metric to be measured by some workload.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var doc struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &doc); err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, set := range []struct {
		code []metricSpec
		doc  []struct{ Name, Unit, Better string }
	}{{endToEnd, doc.EndToEnd}, {perLayer, doc.PerLayer}} {
		if len(set.code) != len(set.doc) {
			t.Fatalf("code lists %d metrics, BENCHMARK.json %d", len(set.code), len(set.doc))
		}
		for i, s := range set.code {
			d := set.doc[i]
			if !legal.MatchString(s.Name) || s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
				t.Errorf("metric %d: code %+v, BENCHMARK.json %+v", i, s, d)
			}
		}
	}

	// The parent adds set-up time and peak RSS; every other end-to-end
	// metric comes from the untraced child, and the traced pass yields the
	// whole per-layer set.
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			untraced, err := childRun(tinyEnv(t, wl))
			if err != nil {
				t.Fatal(err)
			}
			if untraced.Failed > 0 || untraced.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", untraced.Failed, untraced.Attempted, untraced.Problems)
			}
			for _, s := range endToEnd {
				if _, ok := untraced.Metrics[s.Name]; !ok && s.Name != "setup_s" {
					t.Errorf("end-to-end metric %s not measured", s.Name)
				}
			}
			if wl != "storm" && wl != "serve" {
				return // the traced pass is slow; two workloads cover its code
			}
			traced, err := childTraced(tinyEnv(t, wl), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			untraced.Metrics["go.peak_rss_mb"] = 1 // the parent reads it from the child's rusage
			got := tracedMetrics(untraced.Metrics, traced.Metrics)
			for _, s := range perLayer {
				if _, ok := got[s.Name]; !ok {
					t.Errorf("per-layer metric %s not measured", s.Name)
				}
			}
		})
	}
}

// TestTab3MatchesTable3 recomputes Table III's rows from the benchmark's
// tab3 configs, so the workload cannot drift from the experiment users
// run.
func TestTab3MatchesTable3(t *testing.T) {
	const instr = 1_500
	want := experiments.Table3(experiments.Options{Instr: instr, Seed: 3, Workloads: focus})
	cfgs := tab3Configs(3, instr)
	results := make([]system.Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := system.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	per := len(tab3Orgs) * len(focus) // configs per scenario
	var rows []experiments.Table3Row
	for si, sc := range tab3Scenarios {
		base := results[si*per : si*per+len(focus)]
		for oi, name := range []string{"Monolithic", "Distributed", "NOCSTAR"} {
			org := results[si*per+(oi+1)*len(focus) : si*per+(oi+2)*len(focus)]
			var vs []float64
			for wi := range focus {
				vs = append(vs, org[wi].SpeedupOver(base[wi]))
			}
			lo, hi := stats.MinMax(vs)
			label := "Variable"
			if sc.ptw.Mode == ptw.Fixed {
				label = fmt.Sprintf("Fixed-%d", sc.ptw.FixedLatency)
			}
			rows = append(rows, experiments.Table3Row{Prefetch: sc.label, SMT: sc.smt,
				PTW: label, Org: name, Min: lo, Avg: stats.Mean64(vs), Max: hi})
		}
	}
	if !slices.Equal(rows, want.Rows) {
		t.Fatalf("tab3 configs give\n%v\nexperiments.Table3 gives\n%v", rows, want.Rows)
	}
}

// TestDigestsIndependentOfParallelism runs each workload's configs on one
// and on two workers; the digests must agree.
func TestDigestsIndependentOfParallelism(t *testing.T) {
	for _, wl := range workloadNames {
		cfgs := configsFor(wl, 2, tinySizes)
		one, err := runDigests(cfgs, 1)
		if err != nil {
			t.Fatal(err)
		}
		two, err := runDigests(cfgs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(one, two) {
			t.Errorf("%s: digests differ between one and two workers", wl)
		}
	}
}

// TestCommittedDigestsCoverEveryConfig keeps the committed digests in
// step with the full-size grids.
func TestCommittedDigestsCoverEveryConfig(t *testing.T) {
	all, err := loadCommitted()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		for _, wl := range workloadNames {
			if _, err := newChecker(wl, seed, fullSizes); err != nil {
				t.Error(err)
			}
			if len(all[fmt.Sprint(seed)][wl]) == 0 {
				t.Errorf("no committed %s digests for seed %d", wl, seed)
			}
		}
	}
}

// TestServeHitsByteIdentical drives the serve workload: every cache hit
// must return its swept result's bytes, and sampled configs must match an
// in-process run byte for byte. A failure shows as a failed operation.
func TestServeHitsByteIdentical(t *testing.T) {
	e := tinyEnv(t, "serve")
	e.window = 2 * time.Second
	out, err := runServe(e)
	if err != nil {
		t.Fatal(err)
	}
	if c := out.chk; c.failed > 0 || c.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", c.failed, c.attempted, c.problems)
	}
	if out.metrics["latency_samples"] == 0 || out.metrics["server.cache_hits"] == 0 {
		t.Fatalf("no cache hits measured: %v", out.metrics)
	}
}

// TestCheckerCatchesWrongResults feeds the checker a result whose digest
// differs from the committed one, and one that breaks an invariant.
func TestCheckerCatchesWrongResults(t *testing.T) {
	cfg := configsFor("storm", 1, tinySizes)[0]
	res, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newChecker("storm", 1, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	if !c.sim(0, cfg, res, nil) {
		t.Fatalf("a correct result failed: %v", c.problems)
	}
	changed := res
	changed.StallCycles++
	if c.sim(0, cfg, changed, nil) {
		t.Error("a result differing from an earlier run of its config passed")
	}
	short := res
	short.MemRefs--
	if c.sim(1, cfg, short, nil) {
		t.Error("a result with missing references passed")
	}
	if c.failed != 2 || c.attempted != 3 {
		t.Errorf("attempted %d failed %d, want 3 and 2", c.attempted, c.failed)
	}
}

// TestCheckedRunMatches verifies a config under the invariant checker,
// as set-up children do.
func TestCheckedRunMatches(t *testing.T) {
	for _, wl := range []string{"storm", "serve"} {
		rep, err := verifyChecked(tinyEnv(t, wl), 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed > 0 || rep.Attempted != 1 || len(rep.Digests) != 1 {
			t.Fatalf("%s: %+v", wl, rep)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles(xs, n=4) in Python.
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, 5.5}, // drops 1 and 100
		// Two clusters: the median sits in the larger one, the trimmed
		// mean between them in proportion.
		{[]float64{1, 1, 1, 1, 1, 1, 2, 2, 2, 2}, 1.375},
	} {
		if got := trimmedMean(tc.xs, 0.1); got != tc.want {
			t.Errorf("trimmedMean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		base   []float64
		change []float64
		better string
		want   string
	}{
		{"same", base, []float64{100, 100.5, 99.5, 100, 101}, "higher", "unchanged"},
		{"slower throughput", base, []float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{"faster throughput", base, []float64{120, 121, 119, 120, 120}, "higher", "better"},
		{"lower latency", base, []float64{80, 81, 79, 80, 80}, "lower", "better"},
		{"higher latency", base, []float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{"small gain inside the bound", base, []float64{103, 104, 103, 105, 104}, "higher", "better"},
		{"noisy base", []float64{50, 150, 100, 70, 130}, []float64{100, 101, 99, 100, 100}, "higher", "unresolved"},
		{"noisy base, clearly better", []float64{50, 60, 55, 52, 58}, []float64{100, 101, 99, 100, 100}, "higher", "better"},
	} {
		if got := verdict(tc.base, tc.change, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFlagsDigestDifferences writes two records that differ only
// in one digest.
func TestCompareFlagsDigestDifferences(t *testing.T) {
	run := func(d string) runResult {
		return runResult{Metrics: map[string]float64{"sim_mrefs_per_s": 10, "latency_ms": 5,
			"setup_s": 1, "mean_rss_mb": 100}, Digests: map[string]string{"tab3/000": d}}
	}
	write := func(d string) string {
		rec := record{Workloads: []workloadRecord{{Name: "tab3", Runs: []runResult{run(d), run(d), run(d)}}}}
		path := t.TempDir() + "/rec.json"
		doc, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("aaaa"), write("bbbb")
	var sb strings.Builder
	if err := compareFiles("../BENCHMARK.json", a, a, &sb); err != nil {
		t.Fatalf("identical records: %v\n%s", err, sb.String())
	}
	sb.Reset()
	if err := compareFiles("../BENCHMARK.json", a, b, &sb); err == nil || !strings.Contains(sb.String(), "digest differs: tab3/000") {
		t.Fatalf("a digest difference went unflagged: %v\n%s", err, sb.String())
	}
}

func spinForProfile(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestParseCPUProfile reads back a real CPU profile.
func TestParseCPUProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f.Close()
	r, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p, err := parseCPUProfile(r)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		if slices.ContainsFunc(s.frames, func(fn string) bool { return strings.HasSuffix(fn, ".spinForProfile") }) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sample in spinForProfile among %d samples", len(p.samples))
	}
	var total float64
	for _, s := range p.selfSeconds() {
		total += s
	}
	if total < 0.1 {
		t.Errorf("attributed %.3fs of CPU, want most of the 0.3s spin", total)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nocstar/internal/tlb.(*TLB).Lookup":           "tlb",
		"nocstar/internal/system.(*System).threadLoop": "system",
		"nocstar/internal/metrics.(*Hist).Observe":     "other",
		"nocstar/client.(*Client).Run":                 "client",
		"main.runSim.func1":                            "other",
	} {
		if got, ok := moduleOf(fn); !ok || got != want {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := moduleOf("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc attributed to a repository module")
	}
}
