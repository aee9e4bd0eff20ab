package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"nocstar/internal/runner"
	"nocstar/internal/system"
)

// record is the document -out writes and -compare reads: every run of
// every workload, stamped with the host it ran on.
type record struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadRecord `json:"workloads"`
}

type meta struct {
	Date       string  `json:"date"`
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
}

type workloadRecord struct {
	Name string      `json:"name"`
	Runs []runResult `json:"runs"`
	// Traced holds the per-layer metrics of the traced pass, when one ran.
	Traced map[string]float64 `json:"traced,omitempty"`
}

// fullPass runs every workload runs times, prints each end-to-end median,
// optionally adds a traced pass per workload, and writes the record.
func fullPass(seed int64, seconds float64, runs int, traceDir, out string) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	rec := record{Meta: hostMeta(seed, runs, seconds)}
	failed := 0
	note := func(res runResult) {
		if res.Failed > 0 {
			failed++
			for _, p := range res.Problems {
				fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
			}
		}
	}
	for _, wl := range workloadNames {
		wr := workloadRecord{Name: wl}
		for r := 0; r < runs; r++ {
			res, err := measure(wl, seed, seconds, "")
			if err != nil {
				return err
			}
			note(res)
			wr.Runs = append(wr.Runs, res)
		}
		for _, s := range endToEnd {
			vs := values(wr.Runs, s.Name)
			q1, med, q3 := quartiles(vs)
			fmt.Printf("%s %s %s %s\n", wl, s.Name, formatValue(med), s.Unit)
			fmt.Fprintf(os.Stderr, "perfbench: %s %s quartiles %s..%s over %d runs\n",
				wl, s.Name, formatValue(q1), formatValue(q3), len(vs))
		}
		rec.Workloads = append(rec.Workloads, wr)
	}
	if traceDir != "" {
		for i, wl := range workloadNames {
			res, err := measure(wl, seed, seconds, traceDir)
			if err != nil {
				return err
			}
			note(res)
			for _, s := range perLayer {
				fmt.Printf("%s %s %s %s\n", wl, s.Name, formatValue(res.Metrics[s.Name]), s.Unit)
			}
			rec.Workloads[i].Traced = res.Metrics
		}
		if err := mergeSpans(traceDir, workloadNames); err != nil {
			return err
		}
	}
	if conflicts := digestConflicts(rec); len(conflicts) > 0 {
		for _, c := range conflicts {
			fmt.Fprintln(os.Stderr, "perfbench: digest differs between runs:", c)
		}
		failed++
	}
	if out != "" {
		doc, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs had failed operations", failed)
	}
	return nil
}

// hostMeta describes the machine and the code a record was measured on.
func hostMeta(seed int64, runs int, seconds float64) meta {
	return meta{
		Date:       time.Now().Format("2006-01-02"),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Runs:       runs,
		Seconds:    seconds,
	}
}

// gitSHA reports HEAD, suffixed "-dirty" when tracked files differ from
// it, or "unknown" outside a repository.
func gitSHA() string {
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	out := strings.TrimSpace(string(sha))
	if diff, err := exec.Command("git", "diff-index", "--name-only", "HEAD", "--").Output(); err == nil &&
		len(strings.TrimSpace(string(diff))) > 0 {
		out += "-dirty"
	}
	return out
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// digestConflicts lists configs whose digest differs between runs of one
// record.
func digestConflicts(rec record) []string {
	var out []string
	for _, wr := range rec.Workloads {
		seen := map[string]string{}
		for _, r := range wr.Runs {
			for k, d := range r.Digests {
				if prev, ok := seen[k]; ok && prev != d {
					out = append(out, fmt.Sprintf("%s: %s vs %s", k, prev, d))
				}
				seen[k] = d
			}
		}
	}
	return out
}

func values(runs []runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// latencyTrim is the share of samples latency_ms drops from each end.
const latencyTrim = 0.1

// trimmedMean averages xs after dropping the lowest and the highest share
// f of them (NaN when empty). Unlike a median, it moves in proportion to
// how much of a run the host spends in a fast or a slow stretch: when the
// samples fall in two clusters, the median jumps from one to the other as
// the split passes one half. xs is not modified.
func trimmedMean(xs []float64, f float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(f * float64(len(s)))
	var sum float64
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads read the same as in external tooling.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles compares two records metric by metric against the bounds
// in specPath, and fails when any end-to-end metric reads worse or
// unresolved or any per-config digest differs.
func compareFiles(specPath, basePath, changePath string, w io.Writer) error {
	var spec benchSpec
	var base, change record
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {basePath, &base}, {changePath, &change}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tdelta\tbound\tverdict")
	bad := 0
	for _, bw := range base.Workloads {
		cw, ok := findWorkload(change, bw.Name)
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tmissing from change\n", bw.Name)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, cv := values(bw.Runs, m.Name), values(cw.Runs, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\tnot measured\n", bw.Name, m.Name)
				bad++
				continue
			}
			v := verdict(bv, cv, m.Better, m.Bound)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			bq1, bmed, bq3 := quartiles(bv)
			cq1, cmed, cq3 := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%s [%s, %s]\t%s [%s, %s]\t%+.1f%%\t%.0f%%\t%s\n", bw.Name, m.Name,
				formatValue(bmed), formatValue(bq1), formatValue(bq3),
				formatValue(cmed), formatValue(cq1), formatValue(cq3),
				100*(cmed-bmed)/bmed, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	diffs := digestDiffs(base, change)
	for _, d := range diffs {
		fmt.Fprintln(w, "digest differs:", d)
	}
	if bad > 0 || len(diffs) > 0 {
		return fmt.Errorf("%d metrics worse or unresolved, %d digests differ", bad, len(diffs))
	}
	return nil
}

func findWorkload(rec record, name string) (workloadRecord, bool) {
	for _, wr := range rec.Workloads {
		if wr.Name == name {
			return wr, true
		}
	}
	return workloadRecord{}, false
}

// verdict judges a change's runs against the base's for one metric:
//   - unresolved: the base's interquartile range, as a share of its
//     median, is wider than the bound, and not every change run reads
//     better than every base run;
//   - worse: the change's median is worse than the base's by more than
//     the bound;
//   - better: the change's median is better by more than the base's
//     spread, and at least nine in ten change runs beat the base median;
//   - unchanged otherwise.
func verdict(base, change []float64, better string, bound float64) string {
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	gain := sign * (cmed - bmed) / bmed
	spread := (bq3 - bq1) / bmed
	allBetter := true
	beatMedian := 0
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) <= 0 {
				allBetter = false
			}
		}
		if sign*(c-bmed) > 0 {
			beatMedian++
		}
	}
	switch {
	case spread > bound && !allBetter:
		return "unresolved"
	case gain < -bound:
		return "worse"
	case gain > spread && beatMedian*10 >= 9*len(change):
		return "better"
	}
	return "unchanged"
}

// digestDiffs lists configs whose digest differs between two records.
func digestDiffs(base, change record) []string {
	collect := func(rec record) map[string]string {
		out := map[string]string{}
		for _, wr := range rec.Workloads {
			for _, r := range wr.Runs {
				for k, d := range r.Digests {
					out[k] = d
				}
			}
		}
		return out
	}
	b, c := collect(base), collect(change)
	var out []string
	for k, d := range b {
		if cd, ok := c[k]; ok && cd != d {
			out = append(out, fmt.Sprintf("%s: %s vs %s", k, d, cd))
		}
	}
	sort.Strings(out)
	return out
}

// runDigests runs every config on a pool of the given parallelism and
// returns their digests in order.
func runDigests(cfgs []system.Config, parallelism int) ([]string, error) {
	pool := runner.New(parallelism)
	futs := make([]*runner.Future, len(cfgs))
	for i, cfg := range cfgs {
		futs[i] = pool.Submit(cfg)
	}
	out := make([]string, len(cfgs))
	for i, f := range futs {
		res, err := f.Result()
		if err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		if err := checkInvariants(cfgs[i], res); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
		out[i] = digest(res)
	}
	return out, nil
}
