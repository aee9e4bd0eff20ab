// Command nocstar-trace captures and inspects address traces. To replay
// one, pass it to nocstar-sim after a one-app config document.
//
// Usage:
//
//	nocstar-trace gen -workload canneal -threads 16 -refs 100000 -o canneal.trc
//	nocstar-trace stat canneal.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"nocstar/internal/trace"
	"nocstar/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		genCmd(os.Args[2:])
	case "stat":
		statCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nocstar-trace gen|stat [flags] [file]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func genCmd(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "canneal", "suite workload to capture")
	threads := fs.Int("threads", 16, "thread count")
	refs := fs.Uint64("refs", 100_000, "references per thread")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "gen: -o required")
		os.Exit(2)
	}
	spec, ok := workload.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "gen: unknown workload %q\n", *name)
		os.Exit(2)
	}
	tr := trace.Capture(spec, *threads, *refs, *seed)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		fatal(err)
	}
	info, _ := f.Stat()
	fmt.Printf("captured %d refs x %d threads of %s -> %s (%.2f bytes/ref)\n",
		*refs, *threads, *name, *out, float64(info.Size())/float64(tr.Refs()))
}

func load(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func statCmd(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "stat: one trace file required")
		os.Exit(2)
	}
	s := trace.Analyze(load(fs.Arg(0)))
	fmt.Printf("trace:          %s\n", s.Name)
	fmt.Printf("threads:        %d\n", s.Threads)
	fmt.Printf("references:     %d\n", s.Refs)
	fmt.Printf("distinct pages: %d (%.1f MB footprint)\n",
		s.DistinctPages, float64(s.DistinctPages)*4096/1e6)
	fmt.Printf("distinct 2MB:   %d extents\n", s.Distinct2M)
	fmt.Printf("shared pages:   %d (%.1f%% of distinct)\n",
		s.SharedPages, 100*float64(s.SharedPages)/float64(max(1, s.DistinctPages)))
	fmt.Printf("reuse rate:     %.3f\n", s.ReuseRate)
}
