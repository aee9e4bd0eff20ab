package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestReportJobsMatrix is the end-to-end determinism gate: it builds the
// nocstar-exp binary and runs the same invocation at -j 1, 2 and 4, and
// every run must write a byte-identical, non-empty -report JSON. Each
// invocation is its own process, so each executes every run afresh.
// fig12 runs every organization side by side and divides by the private
// baseline, and the report's probe and its baseline are fig12's runs,
// so scheduling order and the memo's hits are all exercised.
func TestReportJobsMatrix(t *testing.T) {
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
		argv := []string{"-j", strconv.Itoa(j), "-quiet", "-report", report,
			"-instr", "2000", "-workloads", "gups", "fig12"}
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
