// Command perfbench is the repository's benchmark. It measures the paths
// users wait on, end to end and layer by layer, over four workloads:
//
//	tab3       the Table III sweep (32 cores, 160 configs)
//	scale1024  single 1024-core gups runs, distributed mesh and NOCSTAR
//	storm      TLB writes beside reads: the storm co-runner and shootdowns
//	serve      the HTTP serve tier, driven only through nocstar/client
//
// Every run happens in fresh child processes, so memoized state never
// leaks between runs and peak RSS is the run's own. Each run checks the
// simulated results: against committed per-config digests for seeds 1 and
// 2, and for every seed against invariants, repeated runs and, in serve,
// byte identity with the swept and in-process results.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload tab3 --seed 1 --seconds 15 --trace 0
//	perfbench [-seed N] [-runs R] [-seconds S] [-out rec.json] [-trace DIR]
//	perfbench -compare BASE.json CHANGE.json
//
// The first form runs one workload once and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as its last line, a JSON
// object. The second runs every workload R times, prints each end-to-end
// median as "<workload> <metric> <value> <unit>", and with -trace DIR adds
// a traced pass per workload that writes DIR/<workload>.pprof and
// DIR/trace.json. The third compares two records offline. See README.md
// for the metric glossary.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nocstar/internal/check"
	"nocstar/internal/system"
)

// metricSpec describes one printed metric; BENCHMARK.json lists the same
// names, units and directions.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricSpec{
	{"sim_mrefs_per_s", "Mref/s", "higher"},
	{"latency_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"mean_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, printed by the traced pass.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, m := range modules {
		out = append(out, metricSpec{m + ".self_s", "s", "lower"})
	}
	return append(out, []metricSpec{
		{"engine.events", "count", "lower"},
		{"engine.host_ns_per_event", "ns", "lower"},
		{"engine.schedule_run_ns", "ns", "lower"},
		{"workload.gen_ns_per_ref", "ns", "lower"},
		{"tlb.l1_misses", "count", "lower"},
		{"tlb.l1_hit_ratio", "ratio", "higher"},
		{"tlb.l1_lookup_ns", "ns", "lower"},
		{"tlb.l2_accesses", "count", "lower"},
		{"tlb.l2_hit_ratio", "ratio", "higher"},
		{"tlb.l2_lookup_ns", "ns", "lower"},
		{"tlb.l2_insert_ns", "ns", "lower"},
		{"tlb.remote_accesses", "count", "lower"},
		{"tlb.invalidate_ns", "ns", "lower"},
		{"tlb.flush_ns", "ns", "lower"},
		{"vm.walks", "count", "lower"},
		{"vm.shootdowns", "count", "lower"},
		{"vm.translate_ns", "ns", "lower"},
		{"vm.promote_demote_us", "us", "lower"},
		{"ptw.walk_ns", "ns", "lower"},
		{"ptw.pwc_hit_ratio", "ratio", "higher"},
		{"ptw.queue_cycles", "cycles", "lower"},
		{"cache.mem_fills", "count", "lower"},
		{"noc.setup_attempts", "count", "lower"},
		{"noc.first_try_ratio", "ratio", "higher"},
		{"noc.retries", "count", "lower"},
		{"noc.nocstar_grant_ns", "ns", "lower"},
		{"system.new_ms", "ms", "lower"},
		{"sys.mem_refs", "count", "higher"},
		{"sys.sim_cycles", "cycles", "lower"},
		{"sys.stall_cycles", "cycles", "lower"},
		{"runner.busy_frac", "ratio", "higher"},
		{"runner.submitted", "count", "higher"},
		{"runner.deduped", "count", "lower"},
		{"store.mem_get_ns", "ns", "lower"},
		{"store.mem_put_ns", "ns", "lower"},
		{"store.dir_get_us", "us", "lower"},
		{"store.dir_put_us", "us", "lower"},
		{"store.open_dir_ms", "ms", "lower"},
		{"store.blob_kb", "KB", "lower"},
		{"server.cache_hits", "count", "higher"},
		{"server.runs_executed", "count", "higher"},
		{"server.deduped", "count", "lower"},
		{"server.rejected", "count", "lower"},
		{"serve.hit_p99_ms", "ms", "lower"},
		{"serve.cold_p50_ms", "ms", "lower"},
		{"serve.cold_p90_ms", "ms", "lower"},
		{"serve.cold_samples", "count", "higher"},
		{"serve.restart_ms", "ms", "lower"},
		{"serve.sweep_s", "s", "lower"},
		{"latency_p50_ms", "ms", "lower"},
		{"latency_p90_ms", "ms", "lower"},
		{"latency_samples", "count", "higher"},
		{"go.alloc_mb", "MB", "lower"},
		{"go.gc_cycles", "count", "lower"},
		{"go.gc_pause_ms", "ms", "lower"},
		{"go.peak_rss_mb", "MB", "lower"},
		{"trace_overhead_frac", "ratio", "lower"},
	}...)
}()

// env is one workload run's inputs.
type env struct {
	wl     string
	seed   int64
	window time.Duration
	sz     sizes
	work   string  // scratch directory inside the checkout
	store  string  // serve: leave the swept results here for set-up runs
	tr     *tracer // set in the traced pass
}

// outcome is what one workload run observed.
type outcome struct {
	chk      *checker
	metrics  map[string]float64
	parallel int           // processors its simulations can use at once
	window   time.Duration // from the first operation's start to the last's end
	blobs    [][]byte      // marshaled results, for the store probes
}

func runWorkload(e *env) (*outcome, error) {
	if e.wl == "serve" {
		return runServe(e)
	}
	return runSim(e)
}

// workDir holds every scratch file, under the checkout root the benchmark
// runs from; .gitignore names it.
const workDir = ".bench_build"

// setupRuns is how many fresh processes measure set-up; setup_s is their
// median.
const setupRuns = 5

// childTimeout stops a hung child well inside a run's time limit.
const childTimeout = 150 * time.Second

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run one workload once and print its metrics as a JSON line")
		seed         = flag.Int64("seed", 1, "seed every input derives from")
		seconds      = flag.Float64("seconds", 15, "length of one run's measured work on the reference host, in seconds")
		traceFlag    = flag.String("trace", "0", `traced pass: "0" off, "1" into `+workDir+`/trace, or a directory`)
		runs         = flag.Int("runs", 5, "runs per workload when measuring every workload")
		out          = flag.String("out", "", "write the record of every run to this file")
		compareFlag  = flag.Bool("compare", false, "compare two records: -compare BASE.json CHANGE.json")
		writeDigests = flag.String("write-digests", "", "recompute the committed digests of seeds 1 and 2 into this file")
		childFlag    = flag.String("child", "", "internal: run|setup|traced in a child process")
		storeFlag    = flag.String("store", "", "internal: serve store directory shared with set-up children")
		sampleFlag   = flag.Int("sample", -1, "internal: config a set-up child verifies under the invariant checker")
	)
	flag.Parse()
	traceDir := *traceFlag
	switch traceDir {
	case "0", "":
		traceDir = ""
	case "1":
		traceDir = filepath.Join(workDir, "trace")
	}
	var err error
	switch {
	case *childFlag != "":
		err = childMain(*childFlag, *workloadFlag, *seed, *seconds, traceDir, *storeFlag, *sampleFlag)
	case *compareFlag:
		if flag.NArg() != 2 {
			err = errors.New("usage: perfbench -compare BASE.json CHANGE.json")
			break
		}
		err = compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
	case *writeDigests != "":
		err = writeCommitted(*writeDigests)
	case *workloadFlag != "":
		err = runOnce(*workloadFlag, *seed, *seconds, traceDir)
	default:
		err = fullPass(*seed, *seconds, *runs, traceDir, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runResult is one measured run of one workload, as the parent assembles
// it from its children.
type runResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
}

// runOnce runs one workload once and prints its metrics, one per line,
// then the result as a JSON object on the last line.
func runOnce(wl string, seed int64, seconds float64, traceDir string) error {
	res, err := measure(wl, seed, seconds, traceDir)
	if err != nil {
		return err
	}
	specs := endToEnd
	if traceDir != "" {
		specs = perLayer
		if err := mergeSpans(traceDir, []string{wl}); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, s := range specs {
		fmt.Printf("%s %s %s %s\n", wl, s.Name, formatValue(res.Metrics[s.Name]), s.Unit)
		metrics[s.Name] = value{res.Metrics[s.Name], s.Unit}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// measure runs one workload once. Untraced, a timed child measures the
// window and setupRuns fresh children measure set-up. Traced, an untraced
// child supplies the runtime and latency-tail metrics and the baseline
// for the tracing overhead, and a traced child profiles the same work and
// runs the layer probes.
func measure(wl string, seed int64, seconds float64, traceDir string) (runResult, error) {
	if !slices.Contains(workloadNames, wl) {
		return runResult{}, fmt.Errorf("unknown workload %q (have %v)", wl, workloadNames)
	}
	if seconds <= 0 {
		return runResult{}, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return runResult{}, err
	}
	args := []string{"-workload", wl, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	var store string
	if wl == "serve" && traceDir == "" {
		dir, err := os.MkdirTemp(workDir, "serve-setup-")
		if err != nil {
			return runResult{}, err
		}
		defer os.RemoveAll(dir)
		store = dir
	}
	run, rssKB, err := runChild("run", append(args, "-store", store)...)
	if err != nil {
		return runResult{}, err
	}
	run.Metrics["go.peak_rss_mb"] = float64(rssKB) / 1024
	res := runResult{
		Attempted: run.Attempted,
		Failed:    run.Failed,
		Metrics:   run.Metrics,
		Problems:  run.Problems,
		Digests:   run.Digests,
	}
	if traceDir == "" {
		// Each set-up child then verifies one distinct config, spread over
		// the workload, under the invariant checker.
		n := len(measuredConfigs(wl, seed, fullSizes))
		samples := min(n, setupRuns)
		var setups []float64
		for i := 0; i < setupRuns; i++ {
			a := append(args, "-store", store)
			if i < samples {
				a = append(a, "-sample", fmt.Sprint(i*n/samples))
			}
			s, _, err := runChild("setup", a...)
			if err != nil {
				return runResult{}, err
			}
			setups = append(setups, s.Metrics["setup_s"])
			res.Attempted += s.Attempted
			res.Failed += s.Failed
			res.Problems = append(res.Problems, s.Problems...)
			for k, d := range s.Digests {
				if want, ok := run.Digests[k]; ok && want != d {
					res.Failed++
					res.Problems = append(res.Problems, fmt.Sprintf("%s: checked run digest %s, timed run %s", k, d, want))
				}
			}
		}
		res.Metrics["setup_s"] = median(setups)
	} else {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return runResult{}, err
		}
		traced, _, err := runChild("traced", append(args, "-trace", traceDir)...)
		if err != nil {
			return runResult{}, err
		}
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.Problems = append(res.Problems, traced.Problems...)
		res.Metrics = tracedMetrics(run.Metrics, traced.Metrics)
	}
	want := endToEnd
	if traceDir != "" {
		want = perLayer
	}
	for _, s := range want {
		v, ok := res.Metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return runResult{}, fmt.Errorf("%s: metric %s was not measured", wl, s.Name)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// tracedMetrics assembles the per-layer metrics from the two children of
// a traced run. Latencies and runtime costs, which tracing would inflate,
// come from the untraced child; counts, self times and probes from the
// traced pass.
func tracedMetrics(untraced, traced map[string]float64) map[string]float64 {
	fromUntraced := func(name string) bool {
		return strings.HasPrefix(name, "latency_") || strings.HasPrefix(name, "go.") || serveTierMetric(name)
	}
	out := map[string]float64{
		"trace_overhead_frac": untraced["sim_mrefs_per_s"]/traced["sim_mrefs_per_s"] - 1,
	}
	for k, v := range traced {
		if !fromUntraced(k) {
			out[k] = v
		}
	}
	for k, v := range untraced {
		if fromUntraced(k) {
			out[k] = v
		}
	}
	return out
}

// serveTierMetric reports whether a per-layer metric is measured at the
// serve tier's client boundary rather than from a profile.
func serveTierMetric(name string) bool {
	return (strings.HasPrefix(name, "serve.") || strings.HasPrefix(name, "server.")) &&
		!strings.HasSuffix(name, ".self_s")
}

// childReport is what a child process prints as its last line.
type childReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Digests   map[string]string  `json:"digests,omitempty"`
}

// runChild runs this binary in child mode, waits for it, and returns its
// report and its peak resident set in KB.
func runChild(mode string, args ...string) (childReport, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"-child", mode}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep childReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return childReport{}, 0, fmt.Errorf("%s child: decoding report: %w", mode, err)
	}
	var rssKB int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss // kilobytes on Linux
	}
	return rep, rssKB, nil
}

// childMain is the body of a child process.
func childMain(mode, wl string, seed int64, seconds float64, traceDir, store string, sample int) error {
	e := &env{wl: wl, seed: seed, window: time.Duration(seconds * float64(time.Second)),
		sz: fullSizes, work: workDir, store: store}
	var rep childReport
	var err error
	switch mode {
	case "run":
		rep, err = childRun(e)
	case "setup":
		var secs float64
		if wl == "serve" {
			secs, err = serveSetupSeconds(store)
		} else {
			var d time.Duration
			d, err = buildSystems(e)
			secs = d.Seconds()
		}
		if err == nil && sample >= 0 {
			rep, err = verifyChecked(e, sample)
		}
		if rep.Metrics == nil {
			rep.Metrics = map[string]float64{}
		}
		rep.Metrics["setup_s"] = secs
	case "traced":
		rep, err = childTraced(e, traceDir)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// childRun measures the untraced window and the Go runtime's work in it.
func childRun(e *env) (childReport, error) {
	if err := prebuild(e); err != nil {
		return childReport{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSS()
	out, err := runWorkload(e)
	meanRSS, rssErr := rss.meanMB()
	if err != nil {
		return childReport{}, err
	}
	if rssErr != nil {
		return childReport{}, rssErr
	}
	runtime.ReadMemStats(&after)
	m := out.metrics
	m["mean_rss_mb"] = meanRSS
	m["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return report(out), nil
}

// rssSampler averages the process's resident set while a run works. The
// mean is steady from run to run; the peak moves with garbage-collection
// timing and with which two simulations happen to overlap.
type rssSampler struct {
	stop, done chan struct{}
	sumMB      float64
	n          int
	err        error
}

// rssPeriod is how often the resident set is read.
const rssPeriod = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.sumMB += mb
			s.n++
			select {
			case <-s.stop:
				return
			case <-time.After(rssPeriod):
			}
		}
	}()
	return s
}

// meanMB stops the sampler and returns the mean resident set in MB.
func (s *rssSampler) meanMB() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	return s.sumMB / float64(s.n), nil
}

// residentMB reads the resident set from /proc/self/statm (Linux).
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("reading resident set: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("reading resident set: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reading resident set: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// verifyChecked runs config idx of the workload under the invariant
// checker (internal/check), whose shadow oracle re-walks every served
// translation against the page table and shadows NOCSTAR's circuit
// reservations. A checked run is timing-identical to an unchecked one, so
// its digest must also equal the timed run's.
func verifyChecked(e *env, idx int) (childReport, error) {
	chk, err := newChecker(e.wl, e.seed, e.sz)
	if err != nil {
		return childReport{}, err
	}
	cfgs := measuredConfigs(e.wl, e.seed, e.sz)
	if idx >= len(cfgs) {
		return childReport{}, fmt.Errorf("sample %d of %d configs", idx, len(cfgs))
	}
	cfg := cfgs[idx]
	cfg.Check = check.New()
	res, err := system.Run(cfg)
	chk.sim(idx, cfg, res, err)
	return report(&outcome{chk: chk, metrics: map[string]float64{}}), nil
}

func report(out *outcome) childReport {
	c := out.chk
	c.mu.Lock()
	rep := childReport{Attempted: c.attempted, Failed: c.failed, Problems: c.problems, Metrics: out.metrics}
	c.mu.Unlock()
	rep.Digests = c.digests()
	return rep
}

// childTraced runs the workload under a CPU profile with spans recorded
// around every call, then the layer probes.
func childTraced(e *env, dir string) (childReport, error) {
	e.tr = newTracer()
	if err := prebuild(e); err != nil {
		return childReport{}, err
	}
	profPath := filepath.Join(dir, e.wl+".pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return childReport{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return childReport{}, err
	}
	out, err := runWorkload(e)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return childReport{}, err
	}
	pf, err := os.Open(profPath)
	if err != nil {
		return childReport{}, err
	}
	prof, err := parseCPUProfile(pf)
	pf.Close()
	if err != nil {
		return childReport{}, err
	}

	m := out.metrics
	for mod, s := range prof.selfSeconds() {
		m[mod+".self_s"] = s
	}
	simCPU := prof.labeledSeconds()
	m["runner.busy_frac"] = simCPU / (float64(out.parallel) * out.window.Seconds())
	c := &out.chk.counts
	m["engine.host_ns_per_event"] = simCPU * 1e9 / float64(max(c.events, 1))
	m["system.new_ms"] = e.tr.meanMS("system.new")
	for k, v := range c.metrics() {
		m[k] = v
	}
	in := probeInput{seed: e.seed, cores: c.nocCores, blobs: out.blobs, work: e.work}
	if c.rateNodeCycle > 0 {
		in.rate = float64(c.rateMessages) / float64(c.rateNodeCycle)
	}
	for _, name := range focus {
		if e.wl != "scale1024" || name == "gups" {
			in.specs = append(in.specs, spec(name))
		}
	}
	probes, err := runProbes(in, e.tr)
	if err != nil {
		return childReport{}, err
	}
	for k, v := range probes {
		m[k] = v
	}
	if err := writeSpans(filepath.Join(dir, e.wl+".spans.json"), e.tr.events(slices.Index(workloadNames, e.wl)+1, e.wl)); err != nil {
		return childReport{}, err
	}
	return report(out), nil
}

// metrics turns the summed counts into per-layer metrics.
func (c *counts) metrics() map[string]float64 {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"engine.events":       float64(c.events),
		"sys.mem_refs":        float64(c.memRefs),
		"sys.sim_cycles":      float64(c.cycles),
		"sys.stall_cycles":    float64(c.stall),
		"tlb.l1_misses":       float64(c.l1Misses),
		"tlb.l1_hit_ratio":    1 - ratio(c.l1Misses, c.memRefs),
		"tlb.l2_accesses":     float64(c.l2Acc),
		"tlb.l2_hit_ratio":    ratio(c.l2Hits, c.l2Acc),
		"tlb.remote_accesses": float64(c.remote),
		"vm.walks":            float64(c.walks),
		"vm.shootdowns":       float64(c.shootdowns),
		"ptw.pwc_hit_ratio":   ratio(c.pwcHits, c.ptwWalks),
		"ptw.queue_cycles":    float64(c.ptwQueue),
		"cache.mem_fills":     float64(c.memFills),
		"noc.setup_attempts":  float64(c.nocAttempts),
		"noc.first_try_ratio": ratio(c.nocFirstTry, c.nocMessages),
		"noc.retries":         float64(c.nocRetries),
	}
}

// writeSpans stores one child's trace events for the parent to merge.
func writeSpans(path string, events []traceEvent) error {
	doc, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// mergeSpans gathers the named workloads' span files into dir/trace.json.
func mergeSpans(dir string, wls []string) error {
	var all []traceEvent
	for _, wl := range wls {
		path := filepath.Join(dir, wl+".spans.json")
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var evs []traceEvent
		if err := json.Unmarshal(raw, &evs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, evs...)
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return writeChromeTrace(filepath.Join(dir, "trace.json"), all)
}

// writeCommitted recomputes the committed digests: every config of every
// workload at full size, for seeds 1 and 2.
func writeCommitted(path string) error {
	all := committedDigests{}
	for _, seed := range []int64{1, 2} {
		key := fmt.Sprint(seed)
		all[key] = map[string][]string{}
		for _, wl := range workloadNames {
			cfgs := configsFor(wl, seed, fullSizes)
			ds, err := runDigests(cfgs, 2)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			all[key][wl] = ds
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d digests\n", wl, seed, len(ds))
		}
	}
	doc, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}
