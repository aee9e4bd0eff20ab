// Command nocstar-sim runs the machine one config document describes and
// prints a detailed report of the translation path: runtime, TLB
// statistics, network behaviour, walk latencies, concurrency, energy,
// and the speedup over private L2 TLBs.
//
// The document is the canonical config JSON that POST /v1/runs accepts
// and the result store hashes, so a run typed here pastes into the
// service unchanged, and the printed hash is the service's config_hash.
//
// Usage:
//
//	nocstar-sim DOC [TRACE]
//
// DOC is a file, or - for stdin. With TRACE (a file nocstar-trace gen
// writes), the document's single app replays the trace, one thread per
// trace thread, in place of its generated references; the app's
// workload still sets the CPI and memory-reference rate.
//
//	echo '{"org":"nocstar","cores":16,"apps":[{"workload":"canneal","threads":16}]}' | nocstar-sim -
//	nocstar-sim run.json canneal.trc
//
// A document or trace that cannot be read, decoded or validated exits 2
// naming what is wrong; a failed run exits 1.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"nocstar/internal/stats"
	"nocstar/internal/system"
	"nocstar/internal/trace"
	"nocstar/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 || len(args) > 2 || args[0] != "-" && strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(stderr, "usage: nocstar-sim DOC [TRACE]  (DOC is a config JSON file, or - for stdin)")
		return 2
	}
	cfg, tr, err := load(args, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "nocstar-sim:", err)
		return 2
	}
	if tr == nil {
		// A replayed run carries live streams and so has no canonical
		// form to hash.
		hash, err := cfg.CanonicalHash()
		if err != nil {
			fmt.Fprintln(stderr, "nocstar-sim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "config sha256 %s\n", hash)
	}
	r, err := system.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "nocstar-sim:", err)
		return 1
	}
	report(stdout, cfg, tr, r)

	if cfg.Org != system.Private {
		bcfg := cfg
		bcfg.Org = system.Private
		if tr != nil {
			// Fresh replayers: the run above left its streams mid-trace.
			app := cfg.Apps[0]
			app.Streams, _ = replayers(tr) // cannot fail: load built them once
			bcfg.Apps = []system.App{app}
		}
		b, err := system.Run(bcfg)
		if err != nil {
			fmt.Fprintln(stderr, "nocstar-sim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nspeedup vs private L2 TLBs: %.3fx (misses eliminated: %.1f%%)\n",
			r.SpeedupOver(b), 100*r.MissesEliminatedVs(b))
	}
	return 0
}

// load reads, decodes and validates the document, attaching the trace's
// replayers when a trace is named.
func load(args []string, stdin io.Reader) (system.Config, *trace.Trace, error) {
	var doc []byte
	var err error
	if args[0] == "-" {
		if doc, err = io.ReadAll(stdin); err != nil {
			err = fmt.Errorf("reading the document from stdin: %w", err)
		}
	} else {
		doc, err = os.ReadFile(args[0])
	}
	if err != nil {
		return system.Config{}, nil, err
	}
	cfg, err := system.UnmarshalConfig(doc)
	if err != nil {
		return system.Config{}, nil, err
	}
	var tr *trace.Trace
	if len(args) == 2 {
		if tr, err = readTrace(args[1]); err != nil {
			return system.Config{}, nil, err
		}
		if len(cfg.Apps) != 1 {
			return system.Config{}, nil, fmt.Errorf("a replayed document must hold exactly one app, not %d", len(cfg.Apps))
		}
		if cfg.Apps[0].Streams, err = replayers(tr); err != nil {
			return system.Config{}, nil, err
		}
	}
	// Validate names every failing field; with a trace it also checks
	// the app's thread count against the trace's.
	if err := cfg.Validate(); err != nil {
		return system.Config{}, nil, err
	}
	return cfg, tr, nil
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// replayers returns one stream per trace thread, each from its start.
func replayers(tr *trace.Trace) ([]workload.Stream, error) {
	streams := make([]workload.Stream, len(tr.Threads))
	for i := range streams {
		r, err := tr.NewReplayer(i)
		if err != nil {
			return nil, err
		}
		streams[i] = r
	}
	return streams, nil
}

// report prints the run's table and its shared-L2 concurrency.
func report(w io.Writer, cfg system.Config, tr *trace.Trace, r system.Result) {
	names := make([]string, len(cfg.Apps))
	for i, a := range cfg.Apps {
		names[i] = a.Spec.Name
	}
	title := strings.Join(names, "+")
	if tr != nil {
		title += " replaying trace " + tr.Name
	}
	t := stats.NewTable(fmt.Sprintf("%s on %d-core %s (THP=%v)", title, cfg.Cores, cfg.Org, cfg.THP))
	t.Row("metric", "value")
	t.Row("cycles", r.Cycles)
	t.Row("instructions", r.Instructions)
	t.Row("IPC", fmt.Sprintf("%.3f", r.IPC))
	t.Row("L1 TLB miss rate", fmt.Sprintf("%.4f", r.L1MissRate()))
	t.Row("L2 TLB accesses", r.L2Accesses)
	t.Row("L2 TLB miss rate", fmt.Sprintf("%.4f", r.L2MissRate()))
	t.Row("L2 misses / kilo-instr", fmt.Sprintf("%.3f", r.MPKI()))
	t.Row("page walks", r.Walks)
	t.Row("avg walk cycles", fmt.Sprintf("%.1f", r.PTW.AvgCycles()))
	t.Row("leaf PTE from LLC/mem", fmt.Sprintf("%.1f%%", 100*r.PTW.LeafLLCOrMemFraction()))
	t.Row("avg L2 access cycles", fmt.Sprintf("%.1f", r.AvgL2AccessCycles))
	t.Row("local slice accesses", r.LocalSlice)
	if r.Noc.Messages > 0 {
		t.Row("fabric messages", r.Noc.Messages)
		t.Row("avg path setup cycles", fmt.Sprintf("%.2f", r.Noc.AvgSetupCycles()))
		t.Row("contention-free setups", fmt.Sprintf("%.1f%%", 100*r.Noc.NoContentionFraction()))
	}
	t.Row("translation energy (uJ)", fmt.Sprintf("%.2f", r.Energy.TotalPJ()/1e6))
	fmt.Fprint(w, t.String())

	fmt.Fprintln(w, "\nconcurrency of shared L2 accesses:")
	for i, b := range stats.ConcurrencyBuckets {
		fmt.Fprintf(w, "  %-10s %.1f%%\n", b.Label, 100*r.Conc.Fractions()[i])
	}
}
