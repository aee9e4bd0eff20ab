package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// digestPin is one committed fingerprint: an experiment ID or a probe's
// workload, and the first 16 hex digits of its SHA-256.
type digestPin struct {
	id, digest string
}

// experimentPins fingerprint every registered experiment's report entry
// (its data and its rendered text) at digestOptions. They were captured
// on linux/amd64; other architectures may fuse multiply-adds into
// different floating-point results, so the test runs only there.
var experimentPins = []digestPin{
	{"tab1", "d4b42a6caa007b46"},
	{"fig2", "118092132ec495a7"},
	{"fig3", "da4aae5d1c521eae"},
	{"fig4", "c6cb9499777624b0"},
	{"fig5", "fdfbeadb1194efb8"},
	{"fig6", "75dc547db6dc89e5"},
	{"fig9", "96153c2d0087add0"},
	{"fig11a", "be4c846b412e3af2"},
	{"fig11b", "d1701c31c919a2d5"},
	{"fig11c", "3462b7d9dd5c53d9"},
	{"fig12", "dc5862aa0498a638"},
	{"fig13", "5f511fd50b3e8c3f"},
	{"fig14", "208adab86d801f9b"},
	{"fig15", "77ff35f7ed9e8888"},
	{"fig16l", "32d403cccce065ca"},
	{"fig16r", "ce14732be91b40b7"},
	{"fig17", "b18cdbefcc74a123"},
	{"tab3", "7926967af69649e6"},
	{"fig18", "2d00f94aaeeb98f2"},
	{"fig19", "9577ccb3da09c457"},
	{"slice", "b33e539a6354b6b3"},
	{"abl-hpc", "9b5abedb069ebf6b"},
	{"abl-spec", "3698654c7e3b3efb"},
	{"smoke1024", "064b177849895f1c"},
}

// probePins fingerprint the report's NOCSTAR probes, whose metrics
// include engine.events, so a change to the event stream that leaves
// every figure's numbers alone still shows here.
var probePins = []digestPin{
	{"canneal", "e74db364a0844c32"},
	{"gups", "35cd9aac00380cff"},
}

// digestOptions is a small scale at which every experiment runs in a few
// seconds.
func digestOptions() Options {
	return Options{
		Instr:       5_000,
		Seed:        1,
		Workloads:   []string{"canneal", "gups"},
		Combos:      12,
		Parallelism: 2,
	}
}

// digestOf hashes the JSON encoding of each part in turn.
func digestOf(t *testing.T, parts ...any) string {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestExperimentDigests pins the report of every registered experiment
// byte for byte: a change to the model, an experiment or a renderer
// that moves any number shows up as a digest mismatch. On a mismatch
// that is meant, the failure message prints both replacement tables.
func TestExperimentDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64, running on %s", runtime.GOARCH)
	}
	o := digestOptions()
	var ran []RanExperiment
	for _, e := range Registry() {
		ran = append(ran, RanExperiment{ID: e.ID, Description: e.Description, Result: e.Run(o)})
	}
	rep := BuildReport(o, ran)

	var exps, probes []digestPin
	for _, e := range rep.Experiments {
		exps = append(exps, digestPin{e.ID, digestOf(t, e.Data, e.Rendered)})
	}
	for _, p := range rep.Probes {
		probes = append(probes, digestPin{p.Workload, digestOf(t, p)})
	}
	if !slices.Equal(exps, experimentPins) || !slices.Equal(probes, probePins) {
		t.Errorf("report digests changed; if meant, replace the pins with:\n%s%s",
			pinTable("experimentPins", exps), pinTable("probePins", probes))
	}
}

// pinTable renders pins as the Go literal they are committed as.
func pinTable(name string, pins []digestPin) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var %s = []digestPin{\n", name)
	for _, p := range pins {
		fmt.Fprintf(&b, "\t{%q, %q},\n", p.id, p.digest)
	}
	b.WriteString("}\n")
	return b.String()
}
