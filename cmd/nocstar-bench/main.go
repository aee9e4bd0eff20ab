// Command nocstar-bench runs (or parses) `go test -bench` output and
// emits a machine-readable JSON record, so the repository can track its
// performance trajectory per PR instead of per anecdote.
//
// Typical use, via the Makefile:
//
//	make bench-json                   # run BenchmarkTable3, write BENCH_<yyyymmdd>.json
//	make bench-compare OLD=a NEW=b    # benchstat two recorded runs
//
// Direct use:
//
//	nocstar-bench -bench 'BenchmarkTable3$' -benchtime 3x -out BENCH_20260808.json
//	go test -run xxx -bench . -benchmem . | nocstar-bench -in - -out bench.json
//
// The JSON shape (one object per benchmark line):
//
//	{
//	  "date": "2026-08-08",
//	  "git_sha": "abc123...",          // "-dirty" suffixed when the tree is
//	  "go_version": "go1.24.0",        // modified relative to HEAD
//	  "nproc": 2,                      // host CPUs (runtime.NumCPU)
//	  "gomaxprocs": 2,
//	  "cpu_model": "AMD EPYC ...",     // first /proc/cpuinfo model name
//	  "benchmarks": [
//	    {"name": "BenchmarkTable3", "iterations": 3,
//	     "sec_per_op": 3.958, "bytes_per_op": 904010832,
//	     "allocs_per_op": 1001359,
//	     "metrics": {"nocstar-fixed80-avg": 1.42}}
//	  ]
//	}
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Record is the document written to -out.
type Record struct {
	Date       string      `json:"date"`
	GitSHA     string      `json:"git_sha"`
	GoVersion  string      `json:"go_version"`
	NProc      int         `json:"nproc"`
	GoMaxProcs int         `json:"gomaxprocs"`
	CPUModel   string      `json:"cpu_model"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	SecPerOp    float64            `json:"sec_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		bench     = flag.String("bench", "BenchmarkTable3$", "benchmark pattern passed to go test -bench")
		benchtime = flag.String("benchtime", "3x", "value passed to go test -benchtime")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		in        = flag.String("in", "", "parse this bench-output file instead of running go test (- for stdin)")
		out       = flag.String("out", "", "output JSON path (default BENCH_<yyyymmdd>.json; - for stdout)")
	)
	flag.Parse()

	var raw []byte
	var err error
	switch {
	case *in == "-":
		raw, err = io.ReadAll(os.Stdin)
	case *in != "":
		raw, err = os.ReadFile(*in)
	default:
		raw, err = runBench(*bench, *benchtime, *pkg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocstar-bench:", err)
		os.Exit(1)
	}

	benches := parseBench(raw)
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "nocstar-bench: no benchmark lines found in input")
		os.Exit(1)
	}
	rec := Record{
		Date:       time.Now().Format("2006-01-02"),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Benchmarks: benches,
	}
	doc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocstar-bench:", err)
		os.Exit(1)
	}
	doc = append(doc, '\n')

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().Format("20060102") + ".json"
	}
	if path == "-" {
		os.Stdout.Write(doc)
		return
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nocstar-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "nocstar-bench: wrote %s (%d benchmark(s))\n", path, len(benches))
}

// runBench executes go test -bench and returns its combined output.
func runBench(pattern, benchtime, pkg string) ([]byte, error) {
	cmd := exec.Command("go", "test", "-run", "xxx",
		"-bench", pattern, "-benchtime", benchtime, "-benchmem", pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return buf.Bytes(), nil
}

// parseBench extracts benchmark result lines from go test output. A line
// is `Benchmark<Name>[-P] <iters> <value> <unit> [<value> <unit>]...`;
// ns/op, B/op and allocs/op map to dedicated fields, anything else (the
// custom ReportMetric units) lands in Metrics.
func parseBench(raw []byte) []Benchmark {
	var out []Benchmark
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       stripProcs(fields[0]),
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.SecPerOp = val / 1e9
			case "B/op":
				b.BytesPerOp = int64(val)
			case "allocs/op":
				b.AllocsPerOp = int64(val)
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		out = append(out, b)
	}
	return out
}

// stripProcs removes the -<GOMAXPROCS> suffix go test appends to
// benchmark names (whatever the generating machine's value was).
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// reports "unknown" where that file is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA reports HEAD's commit, "-dirty" suffixed when tracked files are
// modified relative to HEAD, or "unknown" outside a repository. Untracked
// files (benchmark outputs, profiles, scratch notes) do not affect the
// provenance of the built code, so `git status --porcelain` — which
// flags them — would mark clean builds dirty; diff-index inspects only
// what HEAD tracks.
func gitSHA() string {
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	out := strings.TrimSpace(string(sha))
	if status, err := exec.Command("git", "diff-index", "--name-only", "HEAD", "--").Output(); err == nil &&
		len(bytes.TrimSpace(status)) > 0 {
		out += "-dirty"
	}
	return out
}
