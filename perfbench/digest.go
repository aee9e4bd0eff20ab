package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"nocstar/internal/system"
)

// digest fingerprints the simulated statistics a Result carries: cycles,
// instructions, per-app finish, the translation-path counters, stall
// cycles, the NOCSTAR fabric and walker statistics. It deliberately leaves
// out Result.Metrics, and names every field it hashes, so observability
// added to Result later does not change it. The 64-bit prefix of the
// sha256 is kept: it only has to tell equal results from unequal ones.
func digest(r system.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "org=%d cycles=%d instr=%d", r.Org, r.Cycles, r.Instructions)
	for _, a := range r.Apps {
		fmt.Fprintf(h, " app=%s/%d/%d", a.Name, a.Instructions, a.FinishCycle)
	}
	fmt.Fprintf(h, " refs=%d l1m=%d l2a=%d l2h=%d l2m=%d walks=%d local=%d pf=%d sd=%d stall=%d",
		r.MemRefs, r.L1Misses, r.L2Accesses, r.L2Hits, r.L2Misses, r.Walks,
		r.LocalSlice, r.Prefetches, r.Shootdowns, r.StallCycles)
	n := r.Noc
	fmt.Fprintf(h, " noc=%d/%d/%d/%d/%d/%d/%d/%d/%d", n.Messages, n.SetupAttempts, n.FirstTryGrants,
		n.TotalSetupDelay, n.TotalTraversal, n.Retries, n.Releases, n.ReleasedLinks, n.ForeignLinks)
	p := r.PTW
	fmt.Fprintf(h, " ptw=%d/%d/%d/%d/%d/%v", p.Walks, p.TotalCycles, p.QueueCycles, p.PWCHits,
		p.LeafFromLLCOrMem, p.MemRefsByLevel)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkInvariants verifies properties every correct run has whatever its
// seed: the whole configured workload retired, and the translation
// counters nest (misses of a level never exceed its accesses).
func checkInvariants(cfg system.Config, r system.Result) error {
	cfg, err := cfg.Normalized()
	if err != nil {
		return err
	}
	var instr, refs uint64
	for _, a := range cfg.Apps {
		perThread := uint64(float64(cfg.InstrPerThread) * a.Spec.MemRefPerInstr)
		if perThread == 0 {
			perThread = 1
		}
		instr += uint64(a.Threads) * cfg.InstrPerThread
		refs += uint64(a.Threads) * perThread
	}
	switch {
	case r.Cycles == 0:
		return fmt.Errorf("zero simulated cycles")
	case r.Instructions != instr:
		return fmt.Errorf("retired %d instructions, configured %d", r.Instructions, instr)
	case r.MemRefs != refs:
		return fmt.Errorf("%d memory references, workload has %d", r.MemRefs, refs)
	case r.L1Misses > r.MemRefs || r.L2Accesses != r.L1Misses:
		return fmt.Errorf("L1 misses %d, L2 accesses %d, references %d", r.L1Misses, r.L2Accesses, r.MemRefs)
	case r.L2Hits+r.L2Misses != r.L2Accesses:
		return fmt.Errorf("L2 hits %d + misses %d != accesses %d", r.L2Hits, r.L2Misses, r.L2Accesses)
	}
	return nil
}

//go:embed testdata/digests.json
var committedJSON []byte

// committedDigests maps seed -> workload -> per-config digests, in
// configsFor order, at fullSizes.
type committedDigests map[string]map[string][]string

func loadCommitted() (committedDigests, error) {
	var c committedDigests
	if err := json.Unmarshal(committedJSON, &c); err != nil {
		return nil, fmt.Errorf("decoding committed digests: %w", err)
	}
	return c, nil
}

// checker validates every operation of one run and counts failures. An
// operation fails on a run error, a non-done state, a digest that differs
// from the committed one (or, for seeds without committed digests, from an
// earlier run of the same config in this process), a broken invariant,
// or served bytes that differ from the expected ones.
type checker struct {
	wl        string
	committed []string // per-config digests; nil when this seed has none

	mu        sync.Mutex
	seen      map[int]string
	attempted int
	failed    int
	problems  []string
	counts    counts
}

func newChecker(wl string, seed int64, sz sizes) (*checker, error) {
	c := &checker{wl: wl, seen: map[int]string{}}
	if sz != fullSizes {
		return c, nil
	}
	all, err := loadCommitted()
	if err != nil {
		return nil, err
	}
	if d, ok := all[fmt.Sprint(seed)][wl]; ok {
		if want := len(configsFor(wl, seed, sz)); len(d) != want {
			return nil, fmt.Errorf("committed %s digests for seed %d: %d entries, want %d", wl, seed, len(d), want)
		}
		c.committed = d
	}
	return c, nil
}

// maxProblems bounds the failure descriptions a run reports.
const maxProblems = 8

// fail records one failed operation.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	c.noteLocked(format, args...)
}

func (c *checker) noteLocked(format string, args ...any) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// pass records one operation that needed no result check.
func (c *checker) pass() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// sim checks the outcome of config idx and reports whether it passed.
func (c *checker) sim(idx int, cfg system.Config, res system.Result, err error) bool {
	if err != nil {
		c.fail("%s config %d: %v", c.wl, idx, err)
		return false
	}
	if err := checkInvariants(cfg, res); err != nil {
		c.fail("%s config %d: %v", c.wl, idx, err)
		return false
	}
	d := digest(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	want, known := c.seen[idx]
	if c.committed != nil {
		want, known = c.committed[idx], true
	}
	if known && d != want {
		c.failed++
		c.noteLocked("%s config %d: digest %s, want %s", c.wl, idx, d, want)
		return false
	}
	c.seen[idx] = d
	c.counts.add(cfg, res)
	return true
}

// digests returns the digest of every config that ran, keyed for records.
func (c *checker) digests() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.seen))
	for idx, d := range c.seen {
		out[fmt.Sprintf("%s/%03d", c.wl, idx)] = d
	}
	return out
}

// counts sums the simulated statistics of the checked results; they are
// exact for a fixed set of configs and seed.
type counts struct {
	memRefs, cycles, stall      uint64
	l1Misses, l2Acc, l2Hits     uint64
	remote, walks, shootdowns   uint64
	pwcHits, ptwWalks, ptwQueue uint64
	memFills, events            uint64
	nocAttempts, nocFirstTry    uint64
	nocMessages, nocRetries     uint64

	// The fabric probe's inputs: the largest NOCSTAR core count seen, and
	// the messages and node-cycles of the runs at that size.
	nocCores      int
	rateMessages  uint64
	rateNodeCycle uint64
}

func (c *counts) add(cfg system.Config, r system.Result) {
	c.memRefs += r.MemRefs
	c.cycles += r.Cycles
	c.stall += r.StallCycles
	c.l1Misses += r.L1Misses
	c.l2Acc += r.L2Accesses
	c.l2Hits += r.L2Hits
	c.walks += r.Walks
	c.shootdowns += r.Shootdowns
	c.pwcHits += r.PTW.PWCHits
	c.ptwWalks += r.PTW.Walks
	c.ptwQueue += r.PTW.QueueCycles
	c.nocAttempts += r.Noc.SetupAttempts
	c.nocFirstTry += r.Noc.FirstTryGrants
	c.nocMessages += r.Noc.Messages
	c.nocRetries += r.Noc.Retries
	v, _ := r.Metrics.Counter("tlb.remote_accesses")
	c.remote += v
	v, _ = r.Metrics.Counter("cache.mem_fills")
	c.memFills += v
	v, _ = r.Metrics.Counter("engine.events")
	c.events += v
	if cfg.Org == system.Nocstar && cfg.Cores >= c.nocCores {
		if cfg.Cores > c.nocCores {
			c.nocCores, c.rateMessages, c.rateNodeCycle = cfg.Cores, 0, 0
		}
		c.rateMessages += r.Noc.Messages
		c.rateNodeCycle += r.Cycles * uint64(cfg.Cores)
	}
}
