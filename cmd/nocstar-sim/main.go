// Command nocstar-sim runs one simulated configuration and prints a
// detailed report of the translation path: runtime, TLB statistics,
// network behaviour, walk latencies, concurrency, and energy.
//
// Usage:
//
//	nocstar-sim -org nocstar -cores 32 -workload canneal -thp
//	nocstar-sim -org private -cores 16 -workload gups -instr 500000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"nocstar/internal/stats"
	"nocstar/internal/system"
	"nocstar/internal/workload"
)

var orgNames = map[string]system.Org{
	"private":     system.Private,
	"mono":        system.MonolithicMesh,
	"mono-smart":  system.MonolithicSMART,
	"distributed": system.DistributedMesh,
	"nocstar":     system.Nocstar,
	"ideal":       system.IdealShared,
}

func main() {
	var (
		orgName  = flag.String("org", "nocstar", "organization: private|mono|mono-smart|distributed|nocstar|ideal")
		cores    = flag.Int("cores", 32, "core count")
		name     = flag.String("workload", "canneal", "suite workload name")
		thp      = flag.Bool("thp", false, "enable transparent 2MB superpages")
		smt      = flag.Int("smt", 1, "hyperthreads per core")
		prefetch = flag.Int("prefetch", 0, "translation prefetch degree (0-3)")
		instr    = flag.Uint64("instr", 200_000, "instructions per thread")
		seed     = flag.Int64("seed", 1, "simulation seed")
		baseline = flag.Bool("baseline", true, "also run the private baseline and report speedup")
		timeout  = flag.Duration("timeout", 0, "wall-clock cap on each run (e.g. 30s); 0 means uncapped")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	org, ok := orgNames[*orgName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown org %q\n", *orgName)
		os.Exit(2)
	}
	spec, ok := workload.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n",
			*name, strings.Join(workload.Names(), ", "))
		os.Exit(2)
	}
	cfg := system.Config{
		Org:            org,
		Cores:          *cores,
		SMT:            *smt,
		PrefetchDegree: *prefetch,
		THP:            *thp,
		Apps:           []system.App{{Spec: spec, Threads: *cores * *smt, HammerSlice: system.HammerNone}},
		InstrPerThread: *instr / uint64(*smt),
		Seed:           *seed,
	}
	r, err := system.RunContext(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	t := stats.NewTable(fmt.Sprintf("%s on %d-core %s (THP=%v)", spec.Name, *cores, org, *thp))
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
	fmt.Print(t.String())

	fmt.Println("\nconcurrency of shared L2 accesses:")
	for i, b := range stats.ConcurrencyBuckets {
		fmt.Printf("  %-10s %.1f%%\n", b.Label, 100*r.Conc.Fractions()[i])
	}

	if *baseline && org != system.Private {
		bcfg := cfg
		bcfg.Org = system.Private
		bcfg.L2EntriesPerCore = 0
		b, err := system.RunContext(ctx, bcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nspeedup vs private L2 TLBs: %.3fx (misses eliminated: %.1f%%)\n",
			r.SpeedupOver(b), 100*r.MissesEliminatedVs(b))
	}
}
