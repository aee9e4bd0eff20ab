package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"nocstar/internal/runner"
)

// reportOptions is a deliberately tiny scale: one workload, one core
// count, a few thousand instructions — enough to exercise every layer of
// the report without slowing the suite.
func reportOptions(parallelism int) Options {
	return Options{
		Instr:       5_000,
		Seed:        1,
		Workloads:   []string{"gups"},
		CoreCounts:  []int{16},
		Parallelism: parallelism,
	}
}

func buildReportJSON(t *testing.T, parallelism int) []byte {
	t.Helper()
	o := reportOptions(parallelism)
	e, err := Lookup("fig12")
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(o, []RanExperiment{
		{ID: e.ID, Description: e.Description, Result: e.Run(o)},
	})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportReusesFig12Runs: the report's probes are Fig. 12's NOCSTAR
// runs and its private baselines, so after Fig. 12 the report executes
// nothing. The seed is used by no other test, so nothing is memoized
// beforehand.
func TestReportReusesFig12Runs(t *testing.T) {
	o := Options{Instr: 5_000, Seed: 30, Workloads: []string{"canneal", "gups"}, CoreCounts: []int{16}}
	before := runner.Default().Progress().Submitted
	r := Fig12(o)
	fig12 := runner.Default().Progress().Submitted - before
	const orgs = 4
	if want := uint64(len(o.Workloads) * (1 + orgs)); fig12 != want {
		t.Fatalf("Fig. 12 executed %d runs, want %d (a baseline and %d orgs per workload)", fig12, want, orgs)
	}
	rep := BuildReport(o, []RanExperiment{{ID: "fig12", Result: r}})
	if got := runner.Default().Progress().Submitted - before - fig12; got != 0 {
		t.Fatalf("the report executed %d runs after Fig. 12, want 0", got)
	}
	if len(rep.Probes) != len(o.Workloads) {
		t.Fatalf("probes = %d, want %d", len(rep.Probes), len(o.Workloads))
	}
	for i, p := range rep.Probes {
		w := o.Workloads[i]
		if p.Workload != w || p.SpeedupVsPrivate != r.Speedup[w]["NOCSTAR"] {
			t.Fatalf("probe %d: %s speedup %v, Fig. 12 has %s %v",
				i, p.Workload, p.SpeedupVsPrivate, w, r.Speedup[w]["NOCSTAR"])
		}
	}
}

// TestReportSchema is the golden-schema test: a -report document must
// carry the schema version, the echoed options, every executed
// experiment with structured data and rendered text, and per-workload
// probes exposing metrics, NoC accounting, and energy.
func TestReportSchema(t *testing.T) {
	raw := buildReportJSON(t, 0)

	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if v, ok := doc["schema"].(float64); !ok || int(v) != ReportSchemaVersion {
		t.Fatalf("schema = %v, want %d", doc["schema"], ReportSchemaVersion)
	}
	if doc["tool"] != "nocstar-exp" {
		t.Fatalf("tool = %v", doc["tool"])
	}

	opts, ok := doc["options"].(map[string]any)
	if !ok || opts["instr"].(float64) != 5000 || opts["seed"].(float64) != 1 {
		t.Fatalf("options = %v", doc["options"])
	}

	exps, ok := doc["experiments"].([]any)
	if !ok || len(exps) != 1 {
		t.Fatalf("experiments = %v", doc["experiments"])
	}
	exp := exps[0].(map[string]any)
	if exp["id"] != "fig12" {
		t.Fatalf("experiment id = %v", exp["id"])
	}
	if s, ok := exp["rendered"].(string); !ok || len(s) == 0 {
		t.Fatal("experiment rendered text missing")
	}
	if _, ok := exp["data"].(map[string]any); !ok {
		t.Fatal("experiment structured data missing")
	}

	probes, ok := doc["probes"].([]any)
	if !ok || len(probes) != 1 {
		t.Fatalf("probes = %v", doc["probes"])
	}
	p := probes[0].(map[string]any)
	if p["workload"] != "gups" || p["org"] != "nocstar" || p["cores"].(float64) != 16 {
		t.Fatalf("probe header = %v", p)
	}
	if p["speedup_vs_private"].(float64) <= 0 {
		t.Fatalf("speedup_vs_private = %v", p["speedup_vs_private"])
	}

	m, ok := p["metrics"].(map[string]any)
	if !ok {
		t.Fatal("probe metrics missing")
	}
	counters := m["counters"].([]any)
	hists := m["histograms"].([]any)
	if len(counters) == 0 || len(hists) == 0 {
		t.Fatalf("metrics snapshot empty: %d counters, %d histograms", len(counters), len(hists))
	}
	found := map[string]float64{}
	for _, c := range counters {
		cv := c.(map[string]any)
		found[cv["name"].(string)] = cv["value"].(float64)
	}
	for _, name := range []string{"sys.mem_refs", "tlb.l2_accesses", "vm.walks", "engine.events"} {
		if found[name] <= 0 {
			t.Fatalf("counter %q missing or zero in probe metrics (have %v)", name, found)
		}
	}

	noc, ok := p["noc"].(map[string]any)
	if !ok || noc["messages"].(float64) <= 0 {
		t.Fatalf("noc accounting = %v", p["noc"])
	}
	en, ok := p["energy"].(map[string]any)
	if !ok || en["total_pj"].(float64) <= 0 {
		t.Fatalf("energy = %v", p["energy"])
	}
}

// TestReportDeterministicAcrossParallelism pins the report's byte-for-
// byte determinism contract: -j must not leak into the document. Each
// side runs on its own fresh pool, so both execute Fig. 12's runs.
func TestReportDeterministicAcrossParallelism(t *testing.T) {
	build := func(j int) []byte {
		var out []byte
		p := onFreshPool(func() { out = buildReportJSON(t, j) })
		// A baseline and 4 orgs; the probe and its baseline are memo hits.
		if p.Submitted != 5 {
			t.Fatalf("-j %d executed %d runs, want 5", j, p.Submitted)
		}
		return out
	}
	a, b := build(1), build(6)
	if !bytes.Equal(a, b) {
		t.Fatalf("report differs between -j 1 and -j 6:\n--- j1 ---\n%s\n--- j6 ---\n%s", a, b)
	}
}
