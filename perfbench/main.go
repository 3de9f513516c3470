// Command perfbench is the MITS end-to-end benchmark. It starts an
// in-process cluster — two store shards of a primary and a read
// replica each, behind a front door serving the cluster router and the
// school service on one mux, every hop over loopback TCP — and drives
// closed-loop, session-shaped users against it for a fixed time.
//
//	bash perfbench/run.sh --workload session --seed 1 --seconds 20 --trace 0
//
// Workloads: session (a student's whole course session with a fresh
// navigator and cache), browse (single library and catalogue steps on
// a long-lived navigator) and publish (an author republishing courses
// while the other users read them). Every output is checked against
// the seeded catalogue.
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 the time is split
// between an untraced run and a run traced through benchmark-owned
// wrappers at every layer boundary, and the last line carries the
// per-layer breakdown.
// The line before it is a JSON report with the host, the run context
// and every series with its sample count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Run shape.
const (
	setupReps  = 5               // cluster set-ups per untraced run; setup_s is their median
	warmup     = 2 * time.Second // ops before this are not measured
	numWindows = 10              // equal windows per measured run
	driftBound = 0.15            // flag drift beyond this share between first and last fifth
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, err := json.Marshal(map[string]any{"report": out.report})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(rep))
	fmt.Println(string(res))
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the catalogue and the op sequences")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1: per-layer breakdown from a traced run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace == 1
	switch {
	case !slices.Contains(workloads, cfg.workload):
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	return cfg, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	report map[string]any
	result result
}

// users is the closed-loop client count: one per CPU, and at least two
// so that publish has a reader beside its author.
func users() int { return max(2, runtime.NumCPU()) }

// runner holds one cluster and drives users against it.
type runner struct {
	workload string
	seed     uint64
	users    int
	cat      *catalogue
	topo     *topo
	zipf     *zipf
	log      *spanLog // nil when untraced

	base time.Time
}

// setup starts a cluster holding the catalogue. The timed part is what
// a fresh deployment pays before serving: starting the nodes,
// publishing through the router, registering the students and waiting
// for the replicas to converge. The catalogue itself is the
// benchmark's input, produced once per run before any set-up.
func setup(cfg config, cat *catalogue, log *spanLog) (*runner, time.Duration, error) {
	debug.FreeOSMemory() // every set-up starts from the same cold heap
	t0 := time.Now()
	n := users()
	t, err := startTopo(cat, n, log)
	if err != nil {
		return nil, 0, err
	}
	d := time.Since(t0)
	return &runner{workload: cfg.workload, seed: cfg.seed, users: n, cat: cat, topo: t, zipf: newZipf(numCourses, 1), log: log}, d, nil
}

// published releases the catalogue's media bytes once the last cluster
// holds them; only publish's author still writes them.
func published(cfg config, cat *catalogue) {
	if cfg.workload != wlPublish {
		cat.dropData()
	}
}

// step runs one operation of the workload for u.
func (r *runner) step(u *user) (asked int, check func() error, err error) {
	switch r.workload {
	case wlSession:
		return u.session()
	case wlBrowse:
		return u.browse()
	default:
		return u.publishCall()
	}
}

// measured is what one timed run produced inside its window, or inside
// some of its windows.
type measured struct {
	seconds   float64
	users     int
	attempted int
	failed    int
	// checkSeconds is the users' time spent checking outputs; it is
	// benchmark work, so it is not part of the program's throughput.
	checkSeconds float64
	cpuSeconds   float64 // process CPU time over the window
	series       [numSeries]series
	parts        []*measured // the run's windows, in time order
	errs         []string
	// log-clock bounds of the window, for the trace analysis
	logFrom, logTo int64
}

func newMeasured(seconds float64, users int) *measured {
	m := &measured{seconds: seconds, users: users}
	for i := range m.series {
		m.series[i].Unit = "ms"
	}
	m.series[sClipMBps].Unit = "MB/s"
	return m
}

// opsPerS is the operations per second of the users' time not spent
// checking outputs.
func (m *measured) opsPerS() float64 {
	return float64(m.attempted) / (m.seconds - m.checkSeconds/float64(m.users))
}

// checkFrac is the share of the users' time spent checking outputs.
func (m *measured) checkFrac() float64 {
	return m.checkSeconds / (m.seconds * float64(m.users))
}

// windowRates is ops/s per window.
func (m *measured) windowRates() []float64 {
	out := make([]float64, len(m.parts))
	for i, p := range m.parts {
		out[i] = p.opsPerS()
	}
	return out
}

// measure runs every user closed-loop for warmup+seconds and keeps what
// completed inside the last seconds, split into numWindows windows.
// onWindow, when set, runs as the measured window opens. The process
// CPU time over the window goes into the report.
func (r *runner) measure(seconds int, onWindow func()) *measured {
	window := time.Duration(seconds) * time.Second
	stop := warmup + window
	us := make([]*user, r.users)
	for i := range us {
		us[i] = &user{id: i, r: r, rng: userStream(r.seed, r.workload, i), conn: r.topo.conns[i]}
		if i == 0 && r.workload == wlPublish {
			us[i].ver = make([]int, numCourses)
			for k := range us[i].ver {
				us[i].ver[k] = 1 // set-up published version 1
			}
			us[i].variant = make([]int, numCourses)
		}
	}
	r.base = time.Now()
	m := newMeasured(window.Seconds(), r.users)
	if r.log != nil {
		m.logFrom = int64(r.base.Sub(r.log.base) + warmup)
		m.logTo = int64(r.base.Sub(r.log.base) + stop)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(warmup)
		cpu0 := cpuTime()
		if onWindow != nil {
			onWindow()
		}
		time.Sleep(window)
		m.cpuSeconds = (cpuTime() - cpu0).Seconds()
	}()
	for _, u := range us {
		wg.Add(1)
		go func(u *user) {
			defer wg.Done()
			u.loop(stop)
		}(u)
	}
	wg.Wait()

	for i := 0; i < numWindows; i++ {
		m.parts = append(m.parts, newMeasured(window.Seconds()/numWindows, r.users))
	}
	// part returns the window a completion time falls in, nil outside.
	part := func(at time.Duration) *measured {
		if at < warmup || at >= stop {
			return nil
		}
		return m.parts[int(at-warmup)*numWindows/int(window)]
	}
	for _, u := range us {
		for _, op := range u.ops {
			p := part(op.end)
			if p == nil {
				continue
			}
			for _, x := range []*measured{m, p} {
				x.attempted++
				x.checkSeconds += op.check.Seconds()
				if op.failed {
					x.failed++
				}
			}
		}
		for _, s := range u.samples {
			if p := part(s.at); p != nil {
				m.series[s.series].add(s.v)
				p.series[s.series].add(s.v)
			}
		}
		m.errs = append(m.errs, u.errs...)
	}
	return m
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drift compares the throughput of the first and last fifth of a run.
func drift(rates []float64) (frac float64, flagged bool) {
	n := len(rates) / 5
	if n == 0 {
		return 0, false
	}
	var first, last float64
	for i := 0; i < n; i++ {
		first += rates[i]
		last += rates[len(rates)-1-i]
	}
	if first == 0 {
		return 0, false
	}
	frac = (last - first) / first
	return frac, frac > driftBound || frac < -driftBound
}

func bench(cfg config) (*output, error) {
	if cfg.trace {
		return benchTraced(cfg)
	}
	cat, err := newCatalogue(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("catalogue: %w", err)
	}
	var r *runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.topo.close(); err != nil {
				return nil, fmt.Errorf("tear down: %w", err)
			}
		}
		var d time.Duration
		if r, d, err = setup(cfg, cat, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	published(cfg, cat)
	m := r.measure(cfg.seconds, nil)
	if err := r.topo.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	if m.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %ds", cfg.seconds)
	}

	op, inter := m.series[sOp].summarize(), m.series[sInteractive].summarize()
	metrics := map[string]metric{
		"setup_s":            {median(setups), "s"},
		"ops_per_s":          {m.opsPerS(), "1/s"},
		"op_p50_ms":          {op.P50, "ms"},
		"op_p90_ms":          {op.P90, "ms"},
		"interactive_p50_ms": {inter.P50, "ms"},
	}
	rep := r.report(cfg, m)
	rep["setup_s_runs"] = setups
	rep["metric_samples"] = map[string]int{
		"setup_s": len(setups), "ops_per_s": m.attempted,
		"op_p50_ms": op.N, "op_p90_ms": op.N, "interactive_p50_ms": inter.N,
	}
	head := headline(cfg.workload, m, median(setups))
	rep["headline"] = head
	printTable(cfg, metrics, head, m)
	return &output{report: rep, result: result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics,
	}}, nil
}

// benchTraced measures the workload untraced, then again on a fresh
// cluster with every layer boundary wrapped, and reports where the
// traced operations spent their time. Each half gets half the run
// time, so a traced run lasts about as long as an untraced one.
func benchTraced(cfg config) (*output, error) {
	half := max(1, cfg.seconds/2)
	cat, err := newCatalogue(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("catalogue: %w", err)
	}
	plain, _, err := setup(cfg, cat, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base := plain.measure(half, nil)
	if err := plain.topo.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	plain = nil

	log := newSpanLog()
	r, _, err := setup(cfg, cat, log)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	published(cfg, cat)
	var before cacheCounts
	backlog := startBacklogSampler(r.topo)
	m := r.measure(half, func() { before = readCacheCounts() })
	after := readCacheCounts()
	maxBacklog := backlog.stop()
	if err := r.topo.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	if m.attempted == 0 || base.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %ds", cfg.seconds)
	}

	lay := analyze(log, m.logFrom, m.logTo)
	metrics := lay.metrics(after.sub(before), maxBacklog, base.opsPerS(), m.opsPerS())
	rep := r.report(cfg, m)
	rep["untraced_ops_per_s"] = base.opsPerS()
	rep["traced_ops_per_s"] = m.opsPerS()
	rep["layers"] = lay.breakdown()
	printLayers(cfg, lay)
	failed := m.failed + base.failed
	return &output{report: rep, result: result{
		Correct: failed == 0, Attempted: m.attempted + base.attempted, Failed: failed, Metrics: metrics,
	}}, nil
}

// report is the run context and every series, for the line before the
// result.
func (r *runner) report(cfg config, m *measured) map[string]any {
	series := make(map[string]summary)
	for i, s := range m.series {
		if len(s.v) > 0 {
			series[seriesNames[i]] = s.summarize()
		}
	}
	frac, flagged := drift(m.windowRates())
	return map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"host": map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		},
		"transport":       "loopback TCP",
		"topology":        topologyText,
		"users":           r.users,
		"connections":     r.users,
		"catalogue_bytes": r.cat.Bytes,
		"courses":         len(r.cat.Courses),
		"attempted":       m.attempted,
		"failed":          m.failed,
		"failed_frac":     float64(m.failed) / float64(max(1, m.attempted)),
		"check_frac":      m.checkFrac(),
		"cpu_s":           m.cpuSeconds,
		"cpu_ms_per_op":   1e3 * m.cpuSeconds / float64(max(1, m.attempted)),
		"series":          series,
		"drift": map[string]any{
			"window_ops_per_s": m.windowRates(),
			"last_vs_first":    frac,
			"flagged":          flagged,
			"bound":            driftBound,
		},
		"errors": m.errs,
	}
}

// headlineMetric is one of the workload's named figures, with the
// number of samples it rests on.
type headlineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// P99Supported is false when fewer than ten samples lie above a p99.
	P99Supported *bool `json:"p99_supported,omitempty"`
}

// headline names the figures each workload exists to show: set-up,
// throughput and failures everywhere; course start, time to first
// chunk and clip rate for session; interactive latency for session and
// browse; publish and course-read latency for publish. Latencies are
// the median and p99 (with whether ten samples lie beyond it).
func headline(workload string, m *measured, setup float64) map[string]headlineMetric {
	out := map[string]headlineMetric{
		"setup_s":     {Value: setup, Unit: "s", N: setupReps},
		"ops_per_s":   {Value: m.opsPerS(), Unit: "1/s", N: m.attempted},
		"failed_frac": {Value: float64(m.failed) / float64(max(1, m.attempted)), Unit: "ratio", N: m.attempted},
	}
	lat := func(name string, s int) {
		sm := m.series[s].summarize()
		ok := sm.P99OK
		out[name+"_p50_ms"] = headlineMetric{Value: sm.P50, Unit: "ms", N: sm.N}
		out[name+"_p99_ms"] = headlineMetric{Value: sm.P99, Unit: "ms", N: sm.N, P99Supported: &ok}
	}
	switch workload {
	case wlSession:
		lat("course_start", sCourseStart)
		lat("ttfc", sTTFC)
		lat("interactive", sInteractive)
		clip := m.series[sClipMBps].summarize()
		out["clip_MBps_p50"] = headlineMetric{Value: clip.P50, Unit: "MB/s", N: clip.N}
	case wlBrowse:
		lat("interactive", sInteractive)
	case wlPublish:
		lat("publish", sPublish)
		lat("course_read", sCourseRead)
	}
	return out
}

// printTable writes the figures to standard error.
func printTable(cfg config, metrics map[string]metric, head map[string]headlineMetric, m *measured) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d %ds: %d ops, %d failed\n", cfg.workload, cfg.seed, cfg.seconds, m.attempted, m.failed)
	for _, n := range sortedKeys(metrics) {
		fmt.Fprintf(os.Stderr, "  %-22s %12.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, n := range sortedKeys(head) {
		h := head[n]
		fmt.Fprintf(os.Stderr, "  headline %-22s %12.4f %-5s n=%d\n", n, h.Value, h.Unit, h.N)
	}
	for i, s := range m.series {
		if len(s.v) > 0 {
			sm := s.summarize()
			fmt.Fprintf(os.Stderr, "  series %-14s n=%-6d p50=%.4f p90=%.4f p99=%.4f (p%g=%.4f supported) %s\n",
				seriesNames[i], sm.N, sm.P50, sm.P90, sm.P99, sm.TailQ*100, sm.Tail, sm.Unit)
		}
	}
	if frac, flagged := drift(m.windowRates()); flagged {
		fmt.Fprintf(os.Stderr, "  DRIFT: last fifth %+.1f%% against the first %v\n", frac*100, m.windowRates())
	}
	for _, e := range m.errs {
		fmt.Fprintln(os.Stderr, "  error:", e)
	}
}
