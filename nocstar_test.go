package nocstar_test

import (
	"strings"
	"testing"

	"nocstar"
)

func TestQuickstartFlow(t *testing.T) {
	spec, ok := nocstar.WorkloadByName("canneal")
	if !ok {
		t.Fatal("canneal missing")
	}
	mk := func(org nocstar.Org) nocstar.Config {
		return nocstar.Config{
			Org:            org,
			Cores:          8,
			Apps:           []nocstar.App{{Spec: spec, Threads: 8, HammerSlice: nocstar.HammerNone}},
			InstrPerThread: 20_000,
			Seed:           1,
		}
	}
	baseline, err := nocstar.Run(mk(nocstar.Private))
	if err != nil {
		t.Fatal(err)
	}
	result, err := nocstar.Run(mk(nocstar.Nocstar))
	if err != nil {
		t.Fatal(err)
	}
	if s := result.SpeedupOver(baseline); s < 1.0 {
		t.Fatalf("NOCSTAR speedup %.3f < 1", s)
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(nocstar.Workloads()) != 11 {
		t.Fatal("suite size wrong")
	}
	u := nocstar.UniformWorkload("x", 100)
	if u.FootprintPages != 100 {
		t.Fatal("uniform workload wrong")
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(nocstar.Experiments()) != 24 {
		t.Fatalf("experiments = %d", len(nocstar.Experiments()))
	}
	opts := nocstar.DefaultExperimentOptions()
	if opts.Instr == 0 {
		t.Fatal("default options degenerate")
	}
	out, err := nocstar.RunExperiment("fig3", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 3") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if _, err := nocstar.RunExperiment("nope", opts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// listStream is a Stream implemented outside the module: it cycles
// through a fixed list of addresses.
type listStream struct {
	addrs []nocstar.VirtAddr
	next  int
}

func (s *listStream) NextBatch(buf []nocstar.VirtAddr) {
	for i := range buf {
		buf[i] = s.addrs[s.next%len(s.addrs)]
		s.next++
	}
}

// TestExternalStream runs a thread on a Stream built only from the
// public API and checks it issued every reference of its budget.
func TestExternalStream(t *testing.T) {
	spec := nocstar.UniformWorkload("list", 64)
	addrs := make([]nocstar.VirtAddr, 16)
	for i := range addrs {
		addrs[i] = nocstar.VirtAddr(0x100_0000_0000 + uint64(i)*4096)
	}
	stream := &listStream{addrs: addrs}
	const instr = 5000
	r, err := nocstar.Run(nocstar.Config{
		Org:            nocstar.Private,
		Cores:          1,
		Apps:           []nocstar.App{{Spec: spec, Threads: 1, HammerSlice: nocstar.HammerNone, Streams: []nocstar.Stream{stream}}},
		InstrPerThread: instr,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(float64(instr) * spec.MemRefPerInstr)
	if r.MemRefs != want || uint64(stream.next) != want {
		t.Fatalf("MemRefs = %d, stream issued %d, want %d", r.MemRefs, stream.next, want)
	}
}
