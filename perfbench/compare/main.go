// Command compare sets two groups of benchmark runs side by side, one
// row per (workload, metric), against the bounds in BENCHMARK.json:
//
//	cd perfbench && go run ./compare -bench ../BENCHMARK.json BASE_DIR HEAD_DIR
//
// Each directory holds the standard output of runs, one file per run;
// the report line names the workload. A row reads "better", "worse" or
// "unresolved". It is never folded into a combined score.
//
//   - worse: the head's median is worse than the base's by more than
//     the metric's bound, or the spread is wider than the bound and
//     every head run is worse than every base run;
//   - better: the head's median is better by more than the base's own
//     spread (quartile distance over median) and the head wins at least
//     nine tenths of all head/base pairs, ties counting for neither; or
//     the spread is wider than the bound and every head run is better;
//   - unresolved: anything else, noted "within bound" or "spread above
//     bound".
//
// Metrics without a bound (per-layer metrics from traced runs) are
// compared with a zero bound: any median change beyond the spread can
// read better or worse, nothing else. Their rows are information only,
// noted "not gated". The exit status is 1 when an end-to-end row reads
// worse.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runs maps workload → metric → one value per run.
type runs map[string]map[string][]float64

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-bench BENCHMARK.json] BASE_DIR HEAD_DIR")
		return 2
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	base, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	head, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	rows := compare(spec, base, head)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "compare: no (workload, metric) has runs on both sides")
		return 2
	}
	fmt.Fprintf(stdout, "%-10s %-40s %5s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "runs", "base median", "head median", "change", "spread", "bound", "verdict")
	worse := false
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-10s %-40s %2d/%-2d %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s%s\n",
			r.workload, r.metric, r.nBase, r.nHead, r.baseMed, r.headMed, 100*r.change, 100*r.spread, 100*r.bound, r.verdict, r.note)
		worse = worse || (r.gated && r.verdict == verdictWorse)
	}
	if worse {
		return 1
	}
	return 0
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRuns reads every run output in dir.
func loadRuns(dir string) (runs, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := runs{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		wl, metrics, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if out[wl] == nil {
			out[wl] = map[string][]float64{}
		}
		for name, v := range metrics {
			out[wl][name] = append(out[wl][name], v)
		}
	}
	return out, nil
}

var errNoResult = errors.New("no report and result lines")

// parseRun reads one run's output: the report line names the
// workload, the last line carries the metrics.
func parseRun(path string) (string, map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return "", nil, fmt.Errorf("%s: %w", path, errNoResult)
	}
	var rep struct {
		Report struct {
			Workload string `json:"workload"`
		} `json:"report"`
	}
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil || rep.Report.Workload == "" {
		return "", nil, fmt.Errorf("%s: %w", path, errNoResult)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return "", nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	metrics := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = m.Value
	}
	return rep.Report.Workload, metrics, nil
}

const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

type row struct {
	workload, metric string
	nBase, nHead     int
	baseMed, headMed float64
	change           float64 // signed share of the base median; positive is worse
	spread           float64 // larger of the two sides' quartile distance over median
	bound            float64
	gated            bool // an end-to-end metric, whose worse verdict fails the comparison
	verdict, note    string
}

// compare builds one row per workload and metric that both sides ran.
func compare(spec *benchSpec, base, head runs) []row {
	var rows []row
	workloads := make([]string, 0, len(base))
	for wl := range base {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		for i, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			b, h := base[wl][m.Name], head[wl][m.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			r := judge(b, h, m.Better == "higher", m.Bound)
			r.workload, r.metric = wl, m.Name
			r.gated = i < len(spec.EndToEnd)
			if !r.gated {
				r.note += " (not gated)"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// judge compares one metric's runs; see the package comment.
func judge(base, head []float64, higherBetter bool, bound float64) row {
	r := row{nBase: len(base), nHead: len(head), bound: bound}
	r.baseMed, r.headMed = median(base), median(head)
	baseSpread := spreadOf(base)
	r.spread = max(baseSpread, spreadOf(head))
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	if r.baseMed != 0 {
		r.change = sign * (r.headMed - r.baseMed) / abs(r.baseMed)
	}
	wins, losses := 0, 0
	for _, h := range head {
		for _, b := range base {
			switch d := sign * (h - b); {
			case d < 0:
				wins++
			case d > 0:
				losses++
			}
		}
	}
	pairs := len(base) * len(head)
	switch {
	case r.spread > bound && wins == pairs:
		r.verdict, r.note = verdictBetter, " (every head run better)"
	case r.spread > bound && losses == pairs:
		r.verdict, r.note = verdictWorse, " (every head run worse)"
	case r.spread > bound && bound > 0:
		r.verdict, r.note = verdictUnresolved, " (spread above bound)"
	case r.change > bound && r.change > baseSpread:
		r.verdict = verdictWorse
	case -r.change > baseSpread && float64(wins) >= 0.9*float64(pairs):
		r.verdict = verdictBetter
	default:
		r.verdict, r.note = verdictUnresolved, " (within bound)"
	}
	return r
}

// median of the values (mean of the middle two for an even count).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles match Python's statistics.quantiles(values, n=4) with its
// default exclusive method, extrapolation at the ends included.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadOf is the quartile distance as a share of the median.
func spreadOf(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / abs(m)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
