package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nocstar/internal/ptw"
	"nocstar/internal/runner"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// workloadNames lists the benchmark's workloads in the order every mode
// runs and prints them.
var workloadNames = []string{"tab3", "scale1024", "storm", "serve"}

// focus is the four-workload subset the paper's policy studies use; every
// grid below draws from it.
var focus = []string{"canneal", "graph500", "gups", "xsbench"}

// sizes fixes how much simulated work one operation of each workload is.
// The committed digests are valid at fullSizes only; the tests shrink
// everything to tinySizes so they finish in seconds.
type sizes struct {
	tab3Instr  uint64 // per-thread instructions of a Table III config
	scaleInstr uint64 // per-thread instructions of a scale1024 run
	scaleCores int    // cores of a scale1024 run
	stormInstr uint64 // per-thread instructions of a storm config
	serveInstr uint64 // per-thread instructions of a serve config
	serveSeeds int    // seeds per (org, workload) in the serve sweep
	serveCold  int    // fresh configs available to serve's cold phase
}

var fullSizes = sizes{
	tab3Instr:  80_000,
	scaleInstr: 10_000,
	scaleCores: 1024,
	stormInstr: 50_000,
	serveInstr: 20_000,
	serveSeeds: 16,
	serveCold:  512,
}

var tinySizes = sizes{
	tab3Instr:  2_000,
	scaleInstr: 500,
	scaleCores: 64,
	stormInstr: 2_000,
	serveInstr: 1_000,
	serveSeeds: 1,
	serveCold:  8,
}

func spec(name string) workload.Spec {
	s, ok := workload.ByName(name)
	if !ok {
		panic("perfbench: unknown suite workload " + name)
	}
	return s
}

// oneApp is the single-application config every grid starts from: one
// thread per core running the named suite workload, cold (no warmup).
func oneApp(org system.Org, cores int, name string, instr uint64, seed int64) system.Config {
	return system.Config{
		Org:            org,
		Cores:          cores,
		Apps:           []system.App{{Spec: spec(name), Threads: cores, HammerSlice: system.HammerNone}},
		InstrPerThread: instr,
		Seed:           seed,
	}
}

// tab3Scenario is one prefetch/SMT/page-walk row of Table III. The list
// mirrors experiments.Table3's unexported scenario table; TestTab3MatchesTable3
// fails if the two drift apart.
type tab3Scenario struct {
	label    string
	prefetch int
	smt      int
	ptw      ptw.Config
}

var tab3Scenarios = []tab3Scenario{
	{"No/1/Variable", 0, 1, ptw.Config{Mode: ptw.Variable}},
	{"1/1/Variable", 1, 1, ptw.Config{Mode: ptw.Variable}},
	{"1,2/1/Variable", 2, 1, ptw.Config{Mode: ptw.Variable}},
	{"1-3/1/Variable", 3, 1, ptw.Config{Mode: ptw.Variable}},
	{"No/2/Variable", 0, 2, ptw.Config{Mode: ptw.Variable}},
	{"No/4/Variable", 0, 4, ptw.Config{Mode: ptw.Variable}},
	{"No/1/Fixed-10", 0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 10}},
	{"No/1/Fixed-20", 0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 20}},
	{"No/1/Fixed-40", 0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 40}},
	{"No/1/Fixed-80", 0, 1, ptw.Config{Mode: ptw.Fixed, FixedLatency: 80}},
}

// tab3Orgs are the organizations of each scenario, baseline first.
var tab3Orgs = []system.Org{system.Private, system.MonolithicMesh, system.DistributedMesh, system.Nocstar}

// tab3Configs is the grid experiments.Table3 submits for
// Options{Instr: instr, Seed: seed, Workloads: focus}: per scenario, the
// private baseline of each workload, then each shared organization.
func tab3Configs(seed int64, instr uint64) []system.Config {
	const cores = 32
	var out []system.Config
	for _, sc := range tab3Scenarios {
		for _, org := range tab3Orgs {
			for _, name := range focus {
				cfg := oneApp(org, cores, name, instr, seed)
				cfg.PrefetchDegree = sc.prefetch
				cfg.SMT = sc.smt
				cfg.PTW = sc.ptw
				if sc.smt > 1 {
					cfg.Apps[0].Threads = cores * sc.smt
					cfg.InstrPerThread /= uint64(sc.smt)
				}
				out = append(out, cfg)
			}
		}
	}
	return out
}

// scaleConfigs is one gups run on the distributed mesh and one on NOCSTAR
// at the scaling frontier.
func scaleConfigs(seed int64, sz sizes) []system.Config {
	return []system.Config{
		oneApp(system.DistributedMesh, sz.scaleCores, "gups", sz.scaleInstr, seed),
		oneApp(system.Nocstar, sz.scaleCores, "gups", sz.scaleInstr, seed),
	}
}

// stormConfigs runs each workload beside the TLB-storm co-runner with
// steady shootdowns, so TLB writes (flushes, invalidations,
// promote/demote) run beside the reads.
func stormConfigs(seed int64, instr uint64) []system.Config {
	var out []system.Config
	for _, cores := range []int{32, 64} {
		for _, name := range focus {
			for _, org := range []system.Org{system.Private, system.DistributedMesh, system.Nocstar} {
				cfg := oneApp(org, cores, name, instr, seed)
				cfg.THP = true
				cfg.Storm = &system.StormConfig{ContextSwitchInterval: 4000, PromoteDemoteInterval: 1000, Pages: 4096}
				cfg.ShootdownInterval = 2000
				if org != system.Private {
					cfg.InvLeaders = cores / 8
				}
				out = append(out, cfg)
			}
		}
	}
	return out
}

// serveOrgs and the focus workloads span the serve configs.
var serveOrgs = []system.Org{system.Private, system.MonolithicMesh, system.DistributedMesh, system.Nocstar}

// serveSeed derives a serve config's simulation seed from the benchmark
// seed: the sweep uses offsets below 1<<16, the cold phase offsets above,
// so no cold config ever repeats a swept one.
func serveSeed(seed int64, offset int) int64 { return seed<<20 + int64(offset) + 1 }

// serveSweepConfigs is the 16-core grid swept cold into the store.
func serveSweepConfigs(seed int64, sz sizes) []system.Config {
	var out []system.Config
	for k := 0; k < sz.serveSeeds; k++ {
		for _, org := range serveOrgs {
			for _, name := range focus {
				out = append(out, oneApp(org, 16, name, sz.serveInstr, serveSeed(seed, k)))
			}
		}
	}
	return out
}

// serveColdConfigs are fresh configs the cold phase submits, in order.
func serveColdConfigs(seed int64, sz sizes) []system.Config {
	out := make([]system.Config, sz.serveCold)
	for i := range out {
		org := serveOrgs[i%len(serveOrgs)]
		name := focus[(i/len(serveOrgs))%len(focus)]
		out[i] = oneApp(org, 16, name, sz.serveInstr, serveSeed(seed, 1<<16+i))
	}
	return out
}

// configsFor returns a workload's configs under the keys its digests use.
// For serve the sweep configs come first, then the cold ones.
func configsFor(wl string, seed int64, sz sizes) []system.Config {
	switch wl {
	case "tab3":
		return tab3Configs(seed, sz.tab3Instr)
	case "scale1024":
		return scaleConfigs(seed, sz)
	case "storm":
		return stormConfigs(seed, sz.stormInstr)
	case "serve":
		return append(serveSweepConfigs(seed, sz), serveColdConfigs(seed, sz)...)
	}
	panic("perfbench: unknown workload " + wl)
}

// maxBlobs bounds the result blobs a traced sim pass keeps for the store
// probes.
const maxBlobs = 256

// passSeconds is how long one pass over a sim workload's operations takes
// on the reference host (two vCPUs of a Xeon reporting 2.0 GHz). A run does
// round(window/passSeconds) passes, at least one: every run of a seed does
// the same work, so memory use and counts repeat, and on the reference
// host it takes about the window.
var passSeconds = map[string]float64{"tab3": 12, "scale1024": 4.5, "storm": 3.3}

// perWindow scales a per-second rate of operations to a window, at least
// one operation.
func perWindow(rate float64, window time.Duration) int {
	return max(1, int(math.Round(rate*window.Seconds())))
}

// runSim drives tab3, scale1024 or storm: callers run whole passes over
// the operations in a closed loop through a shared runner pool, each
// operation being one or more configs executed in sequence.
func runSim(e *env) (*outcome, error) {
	chk, err := newChecker(e.wl, e.seed, e.sz)
	if err != nil {
		return nil, err
	}
	cfgs := configsFor(e.wl, e.seed, e.sz)
	pool, callers := runner.New(2), 2
	var ops [][]int
	if e.wl == "scale1024" {
		// The two huge runs go one at a time, paired into one operation
		// so every operation does the same work.
		pool, callers = runner.New(1), 1
		ops = [][]int{{0, 1}}
	} else {
		for i := range cfgs {
			ops = append(ops, []int{i})
		}
	}
	total := len(ops) * perWindow(1/passSeconds[e.wl], e.window)
	var (
		refs  atomic.Uint64
		mu    sync.Mutex
		blobs [][]byte
	)
	op := func(i, lane int) {
		opID, end := e.tr.begin("op", 0, uint64(i+1), lane)
		defer end()
		for _, idx := range ops[i%len(ops)] {
			_, endRun := e.tr.begin("runner.submit_wait", opID, uint64(i+1), lane)
			res, err := pool.Submit(cfgs[idx]).Result()
			endRun()
			if !chk.sim(idx, cfgs[idx], res, err) {
				continue
			}
			refs.Add(res.MemRefs)
			if e.tr != nil {
				b, err := json.Marshal(res)
				mu.Lock()
				if err == nil && len(blobs) < maxBlobs {
					blobs = append(blobs, b)
				}
				mu.Unlock()
			}
		}
	}
	var lat []float64
	var window time.Duration
	if callers == 1 {
		// Each operation starts from a collected heap whose free memory is
		// back with the OS, as in a fresh process, and the collection is
		// left out of the timing. Otherwise the resident set depends on
		// whether the scavenger returned the previous pair's garbage in
		// time: on the reference host it moved by a tenth between runs of
		// one seed.
		for i := 0; i < total; i++ {
			debug.FreeOSMemory()
			l, w := closedLoop(1, 1, func(_, lane int) { op(i, lane) })
			lat, window = append(lat, l...), window+w
		}
	} else {
		lat, window = closedLoop(callers, total, op)
	}
	p := pool.Progress()
	m := map[string]float64{
		"sim_mrefs_per_s":  float64(refs.Load()) / 1e6 / window.Seconds(),
		"latency_ms":       trimmedMean(lat, latencyTrim),
		"latency_p50_ms":   quantile(lat, 0.50),
		"latency_p90_ms":   quantile(lat, 0.90),
		"latency_samples":  float64(len(lat)),
		"runner.submitted": float64(p.Submitted),
		"runner.deduped":   float64(p.Deduped),
	}
	// The sim workloads bypass the serve tier, so its metrics read zero.
	for _, s := range perLayer {
		if serveTierMetric(s.Name) {
			m[s.Name] = 0
		}
	}
	return &outcome{chk: chk, metrics: m, parallel: pool.Parallelism(), window: window, blobs: blobs}, nil
}

// closedLoop makes n calls of op from callers goroutines, each starting
// its next call only when its previous one returned. Calls are numbered
// in start order. It returns every call's latency in ms and the time from
// the first start to the last completion.
func closedLoop(callers, n int, op func(i, lane int)) ([]float64, time.Duration) {
	var (
		mu   sync.Mutex
		next int
		lat  []float64
		last time.Time
		wg   sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	start := time.Now()
	for lane := 0; lane < callers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				op(i, lane)
				done := time.Now()
				mu.Lock()
				lat = append(lat, float64(done.Sub(t0).Nanoseconds())/1e6)
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(lat) == 0 {
		return nil, 0
	}
	return lat, last.Sub(start)
}

// measuredConfigs are the configs every run of a workload executes: all
// of a sim workload's, and serve's swept ones. Their digest keys are
// their indices.
func measuredConfigs(wl string, seed int64, sz sizes) []system.Config {
	if wl == "serve" {
		return serveSweepConfigs(seed, sz)
	}
	return configsFor(wl, seed, sz)
}

// buildSystems builds each of the workload's measured systems once, in a
// span per system.New when traced, and returns the summed build time.
// Tables the process builds on first use, such as NOCSTAR's route tables
// (0.4 s at 1024 cores), fall to the first system that needs them.
func buildSystems(e *env) (time.Duration, error) {
	var total time.Duration
	for i, cfg := range measuredConfigs(e.wl, e.seed, e.sz) {
		_, end := e.tr.begin("system.new", 0, uint64(i+1), 0)
		t0 := time.Now()
		_, err := system.New(cfg)
		total += time.Since(t0)
		end()
		if err != nil {
			return 0, fmt.Errorf("config %d: %w", i, err)
		}
	}
	return total, nil
}

// prebuild builds every measured system before a run's work starts, so
// first-use tables count as set-up, which setup_s measures, and not as
// simulation; the collection that follows starts the work from a clean
// heap.
func prebuild(e *env) error {
	if _, err := buildSystems(e); err != nil {
		return err
	}
	runtime.GC()
	return nil
}
