package workload

import "nocstar/internal/vm"

// Stream is a source of one thread's virtual-address references. The
// synthetic Generator implements it, as does a trace replayer — the
// simulator consumes either interchangeably, mirroring how the paper's
// Simics-based infrastructure can run live or from captured traces.
// NextBatch fills buf with the stream's next len(buf) references, so the
// consumer's hot loop reduces to a buffer index bump.
type Stream interface {
	NextBatch(buf []vm.VirtAddr)
}

var _ Stream = (*Generator)(nil)
