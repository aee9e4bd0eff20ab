package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// reportMatrix builds the nocstar-exp binary, runs it with args at
// -j 1, 2 and 4, and fails unless every run writes a byte-identical,
// non-empty -report JSON.
func reportMatrix(t *testing.T, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the nocstar-exp binary")
	}
	bin := filepath.Join(t.TempDir(), "nocstar-exp")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	var golden []byte
	for _, j := range []int{1, 2, 4} {
		report := filepath.Join(t.TempDir(), "report.json")
		argv := append([]string{"-j", strconv.Itoa(j), "-quiet", "-report", report}, args...)
		if out, err := exec.Command(bin, argv...).CombinedOutput(); err != nil {
			t.Fatalf("j=%d: %v\n%s", j, err, out)
		}
		got, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = got
			continue
		}
		if !bytes.Equal(golden, got) {
			t.Fatalf("j=%d report diverges from j=1 (%d vs %d bytes)", j, len(got), len(golden))
		}
	}
	if len(golden) == 0 {
		t.Fatal("empty report")
	}
}

// TestReportJobsMatrix is the end-to-end determinism gate: the same
// invocation at every sweep parallelism (-j) must write a byte-identical
// -report JSON. fig12 runs every organization side by side and divides
// by the memoized private baseline, so scheduling order, dedup and
// memoization are all exercised.
func TestReportJobsMatrix(t *testing.T) {
	reportMatrix(t, "-instr", "2000", "-workloads", "gups", "fig12")
}

// TestReportPlacementMatrix extends the byte-identity gate to the fabric
// layer: the placement experiment — every topology crossed with every
// placement strategy on the distributed organization — must write the
// identical -report JSON at every -j.
func TestReportPlacementMatrix(t *testing.T) {
	reportMatrix(t, "-instr", "1500", "-cores", "16", "-workloads", "gups", "placement")
}
