// Command nocstar-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	nocstar-exp -list
//	nocstar-exp fig12 fig13
//	nocstar-exp -instr 250000 -cores 16,32 fig14
//	nocstar-exp -j 8 all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"nocstar/internal/experiments"
	"nocstar/internal/metrics"
	"nocstar/internal/runner"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		instr      = flag.Uint64("instr", experiments.DefaultOptions().Instr, "instructions per thread")
		seed       = flag.Int64("seed", 1, "simulation seed")
		workloads  = flag.String("workloads", "", "comma-separated workload filter")
		combos     = flag.Int("combos", 0, "limit Fig. 18 combinations (0 = all 330)")
		cores      = flag.String("cores", "", "comma-separated core counts for scaling experiments")
		report     = flag.String("report", "", "write a schema-versioned JSON run report to this file")
		trace      = flag.String("trace", "", "write a Chrome trace_event JSON of one representative run to this file (view in chrome://tracing or ui.perfetto.dev)")
		parallel   = flag.Int("j", 0, "simulations to run in parallel (0 = GOMAXPROCS); output is byte-identical at any setting")
		quiet      = flag.Bool("quiet", false, "suppress the progress line on stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file (use -j 1 for a single-simulation view)")
		memprofile = flag.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Description)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: nocstar-exp [-list] [flags] <experiment-id>... | all")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}

	opts := experiments.Options{Instr: *instr, Seed: *seed, Combos: *combos,
		Parallelism: *parallel}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if *cores != "" {
		for _, c := range strings.Split(*cores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -cores value %q: %v\n", c, err)
				os.Exit(2)
			}
			opts.CoreCounts = append(opts.CoreCounts, n)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	var ran []experiments.RanExperiment
	for _, id := range ids {
		e, err := experiments.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		stop := startProgress(e.ID, *quiet)
		res := e.Run(opts)
		stop()
		fmt.Print(res.Render())
		fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
		if *report != "" {
			ran = append(ran, experiments.RanExperiment{
				ID: e.ID, Description: e.Description, Result: res,
			})
		}
	}

	if *report != "" {
		rep := experiments.BuildReport(opts, ran)
		writeOutput(*report, rep.WriteJSON)
		fmt.Printf("[wrote %s]\n", *report)
	}
	if *trace != "" {
		writeTrace(*trace, opts)
		fmt.Printf("[wrote %s]\n", *trace)
	}
}

// writeOutput creates path's directory if needed and writes the file
// through fn, exiting on any error.
func writeOutput(path string, fn func(io.Writer) error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := fn(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// traceInstrCap bounds the traced run: traces are for inspecting event
// timelines, not statistics, and a short window keeps the file loadable.
const traceInstrCap = 20_000

// writeTrace performs one representative NOCSTAR run with the event
// tracer attached and writes the Chrome trace_event JSON.
func writeTrace(path string, opts experiments.Options) {
	name := "graph500"
	if len(opts.Workloads) > 0 {
		name = opts.Workloads[0]
	}
	spec, ok := workload.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q for -trace\n", name)
		os.Exit(2)
	}
	cores := 16
	if len(opts.CoreCounts) > 0 {
		cores = opts.CoreCounts[0]
	}
	instr := opts.Instr
	if instr > traceInstrCap {
		instr = traceInstrCap
	}
	cfg := system.Config{
		Org:            system.Nocstar,
		Cores:          cores,
		Apps:           []system.App{{Spec: spec, Threads: cores, HammerSlice: system.HammerNone}},
		InstrPerThread: instr,
		Seed:           opts.Seed,
	}
	tr := metrics.NewTracer(0)
	if _, err := system.RunWithTracer(cfg, tr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tr.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "trace window filled: %d events dropped\n", tr.Dropped())
	}
	writeOutput(path, tr.WriteChrome)
}

// startProgress periodically reports the experiment's simulation progress
// (runs completed / submitted so far, and an ETA for the runs already
// queued) on stderr. The returned stop function clears the line.
func startProgress(id string, quiet bool) (stop func()) {
	if quiet {
		return func() {}
	}
	base := runner.Default().Progress()
	begin := time.Now()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(1 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				fmt.Fprintf(os.Stderr, "\r\033[K")
				return
			case <-tick.C:
				p := runner.Default().Progress()
				completed := p.Completed - base.Completed
				submitted := p.Submitted - base.Submitted
				deduped := p.Deduped - base.Deduped
				line := fmt.Sprintf("[%s] %d/%d runs", id, completed, submitted)
				if deduped > 0 {
					line += fmt.Sprintf(" (+%d deduped)", deduped)
				}
				elapsed := time.Since(begin)
				line += fmt.Sprintf(", %s elapsed", elapsed.Round(time.Second))
				if completed > 0 && submitted > completed {
					eta := time.Duration(float64(elapsed) / float64(completed) *
						float64(submitted-completed))
					line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
				}
				fmt.Fprintf(os.Stderr, "\r\033[K%s", line)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
