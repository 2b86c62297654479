// Command perfbench is the repository's benchmark: an open-loop Poisson
// load generator that drives a real amf-server over loopback HTTP through
// api.Client, checks the served allocation against a from-scratch solve
// and the recovered state against the pre-crash state, and reports
// end-to-end metrics (tracing off) or a per-layer breakdown (a separate
// traced run).
//
// It is normally started through run.sh, which builds the server and this
// benchmark from the checkout:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// Every metric is printed as one line (name, value, unit, samples); the
// last line of standard output is one JSON object holding the metrics
// BENCHMARK.json lists for the mode: end_to_end with --trace 0, per_layer
// with --trace 1. The exit code is non-zero when a correctness or
// durability check fails, when any request fails, or when the generator
// ran too late for the run to be valid.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

const (
	// warmOps requests run closed-loop after the bulk load, so caches and
	// lazy set-up are warm before anything is timed. Each write waits for
	// an fsync, so a longer warm-up makes setup_s track the disk's
	// latency rather than the set-up work.
	warmOps = 100
	// latenessBoundMS invalidates a run whose dispatcher handed its p99
	// request to the workers later than this after it was due. Lateness
	// is inside every latency (requests are timed from when they were
	// due); the bound catches a stalled generator. Decoding two full
	// scans at once can hold both of the generator's threads for about
	// one 10 ms preemption slice.
	latenessBoundMS = 50
	// traceRing is the commit-trace ring size of traced runs: larger than
	// the commits of any run, so none is overwritten.
	traceRing = 32768
	// setups is how many times an end-to-end run sets up; setup_s is
	// their median and the last server is the one measured.
	setups = 5
	// recoveries is how many SIGKILL/restart cycles follow the run;
	// recovery_s is their interquartile mean.
	recoveries = 15
)

type options struct {
	server, work, spec string
	seed               uint64
	seconds            float64
	trace              bool
	capacity           bool
	nproc              int
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind a percentile; 0 otherwise
	Idle  string // non-empty when the layer does not run on the workload
}

type report struct {
	workload  string
	env       map[string]any
	metrics   []metric
	attempted int
	failed    int
	problems  []string // failed correctness or durability checks
	invalid   string   // why the run is invalid, if it is
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *report) idle(name, unit, why string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Idle: why})
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) count(rn *run) {
	_, failed := rn.classLatencies()
	r.attempted += len(rn.ops)
	r.failed += failed
	if failed > 0 {
		r.fail("%d of %d requests failed; first: %s", failed, len(rn.ops), rn.firstError())
	}
}

// lateness records the generator's p99 lateness and marks the run
// invalid when it breaks latenessBoundMS.
func (r *report) lateness(xs []float64) {
	v, ok := percentile(xs, 0.99)
	if ok {
		r.add("gen.lateness_p99_ms", v, "ms", len(xs))
	}
	if v > latenessBoundMS {
		r.invalid = fmt.Sprintf("generator lateness p99 %.2f ms exceeds %d ms", v, latenessBoundMS)
	}
}

// percentiles adds prefix_pNN_ms for each percentile in qs that the
// sample-count rule allows.
func (r *report) percentiles(prefix string, xs []float64, qs ...float64) {
	for _, q := range qs {
		v, ok := percentile(xs, q)
		if !ok {
			continue
		}
		r.add(fmt.Sprintf("%s_p%d_ms", prefix, int(q*100+0.5)), v, "ms", len(xs))
	}
}

func main() {
	var o options
	var name string
	var trace int
	flag.StringVar(&name, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	flag.StringVar(&o.server, "server", "", "amf-server binary")
	flag.StringVar(&o.work, "work", ".bench_build/run", "scratch directory for server data")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition naming the reported metrics")
	flag.BoolVar(&o.capacity, "capacity", false, "also run the capacity step search (diagnostic)")
	flag.Parse()
	o.trace = trace == 1
	o.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(o.nproc)
	if err := mainErr(name, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, o options) error {
	if o.server == "" {
		return errors.New("-server is required (run through perfbench/run.sh)")
	}
	spec, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	todo := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		todo = []*workloadSpec{w}
	}
	out := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	var bad []string
	for _, w := range todo {
		rep, err := bench(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(rep)
		if rep.invalid != "" {
			return fmt.Errorf("%s: run invalid: %s", w.name, rep.invalid)
		}
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		if len(rep.problems) > 0 {
			out.Correct = false
			bad = append(bad, w.name)
		}
		prefix := ""
		if len(todo) > 1 {
			prefix = w.name + "."
		}
		for _, m := range want {
			v, err := rep.lookup(m.Name, m.Unit)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			out.Metrics[prefix+m.Name] = valueUnit{v, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(bad) > 0 {
		return fmt.Errorf("checks failed on %s", strings.Join(bad, ", "))
	}
	return nil
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (r *report) lookup(name, unit string) (float64, error) {
	for _, m := range r.metrics {
		if m.Name != name {
			continue
		}
		if m.Idle != "" {
			return 0, fmt.Errorf("metric %s is idle on this workload: %s", name, m.Idle)
		}
		if m.Unit != unit {
			return 0, fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
		return m.Value, nil
	}
	return 0, fmt.Errorf("metric %s was not measured (too few samples?)", name)
}

func printReport(r *report) {
	env, _ := json.Marshal(r.env)
	fmt.Printf("== %s\nenv %s\n", r.workload, env)
	for _, m := range r.metrics {
		switch {
		case m.Idle != "":
			fmt.Printf("  %-40s %14s %-6s (%s)\n", m.Name, "idle", m.Unit, m.Idle)
		case m.N > 0:
			fmt.Printf("  %-40s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		default:
			fmt.Printf("  %-40s %14.4f %-6s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	if r.invalid != "" {
		fmt.Printf("  INVALID: %s\n", r.invalid)
	}
}

// serverArgs are the server's flags for a workload, without -listen.
func serverArgs(w *workloadSpec, caps, dataDir string, traced bool) []string {
	ring := "0"
	if traced {
		ring = strconv.Itoa(traceRing)
	}
	a := []string{
		"-capacity", caps, "-policy", w.policy, "-data-dir", dataDir,
		// No compaction inside a run: the WAL byte count stays exact and
		// recovery replays the whole run.
		"-wal-compact-mb", "1024", "-wal-compact-interval", "0",
		"-trace-buffer", ring, "-slow-trace-buffer", "0",
		"-log-level", "warn", "-metrics-on-exit=false",
	}
	if w.shards > 1 {
		a = append(a, "-cluster-shards", strconv.Itoa(w.shards))
	}
	if w.phase {
		a = append(a, "-phase-hot-threshold", "0.5")
	}
	return a
}

// rig is one set-up server with the source its traffic continues from.
type rig struct {
	srv   *server
	src   *source
	setup time.Duration
	lg    ledger
	warm  *run
}

// setUp execs a server on a fresh data directory, waits until it is
// ready, bulk-loads the base instance in one POST /v1/jobs:batch and runs
// the warm-up requests; the returned duration covers all of it.
func setUp(w *workloadSpec, o options, dir string, traced bool, maxWrites int) (*rig, error) {
	src := newSource(w, o.seed, maxWrites)
	warm, err := src.take(warmOps)
	if err != nil {
		return nil, err
	}
	in := src.base
	batch := make([]api.AddJobRequest, len(in.JobName))
	for j, id := range in.JobName {
		batch[j] = api.AddJobRequest{ID: id, Weight: 1, Demand: in.Demand[j], Work: in.Work[j]}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := serverArgs(w, capacityArg(in), filepath.Join(dir, "data"), traced)
	start := time.Now()
	srv, err := startServer(o.server, args, filepath.Join(dir, "server.log"), o.nproc)
	if err != nil {
		return nil, err
	}
	s := &rig{srv: srv, src: src, lg: ledger{}}
	if err := srv.waitReady(60 * time.Second); err != nil {
		srv.kill()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	_, err = srv.cl.AddJobs(ctx, batch)
	cancel()
	if err != nil {
		srv.kill()
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	s.warm = (&loader{cl: srv.cl}).execute(warm, 0)
	s.setup = time.Since(start)
	for _, id := range in.JobName {
		s.lg[id] = true
	}
	s.lg.record(s.warm)
	return s, nil
}

func bench(w *workloadSpec, o options) (*report, error) {
	rep := &report{workload: w.name}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p50, p95, err := fsyncProbe(dir, 50)
	if err != nil {
		return nil, fmt.Errorf("fsync probe: %w", err)
	}
	rep.env = map[string]any{
		"nproc":             o.nproc,
		"gen_gomaxprocs":    runtime.GOMAXPROCS(0),
		"server_gomaxprocs": o.nproc,
		"go":                runtime.Version(),
		"commit":            commit(),
		"seed":              o.seed,
		"seconds":           o.seconds,
		"rate_ops":          w.rate,
		"conns":             conns,
		"server_flags":      strings.Join(serverArgs(w, "<sites>", "<dir>", o.trace), " "),
		"fsync_p50_ms":      p50,
		"fsync_p95_ms":      p95,
	}
	window := time.Duration(o.seconds * float64(time.Second))
	maxWrites := warmOps + int(w.rate*o.seconds*2) + 1000
	if o.capacity {
		maxWrites += 60000
	}
	if o.trace {
		return rep, tracedRun(w, o, rep, dir, window, maxWrites)
	}
	return rep, endToEnd(w, o, rep, dir, window, maxWrites)
}

func endToEnd(w *workloadSpec, o options, rep *report, dir string, window time.Duration, maxWrites int) error {
	var setupTimes, peaks []float64
	var s *rig
	for i := 0; i < setups; i++ {
		if s != nil {
			s.srv.kill()
		}
		var err error
		if s, err = setUp(w, o, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), false, maxWrites); err != nil {
			return err
		}
		rep.count(s.warm)
		setupTimes = append(setupTimes, s.setup.Seconds())
		peak, err := s.srv.peakRSSMB()
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
	}
	srv := s.srv
	defer srv.kill()

	ops, err := s.src.schedule(w.rate, window)
	if err != nil {
		return err
	}
	// Server CPU at every sub-window boundary, for CPU per op by window.
	cpuAt := make([]time.Duration, windows+1)
	sampled := make(chan error, 1)
	start := time.Now()
	go func() {
		for k := range cpuAt {
			time.Sleep(time.Until(start.Add(window * time.Duration(k) / windows)))
			c, err := srv.cpu()
			if err != nil {
				sampled <- err
				return
			}
			cpuAt[k] = c
		}
		sampled <- nil
	}()
	rn := (&loader{cl: srv.cl}).execute(ops, window)
	if err := <-sampled; err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	rep.count(rn)
	s.lg.record(rn)

	// Medians and CPU per op are interquartile means over sub-windows;
	// tails use the whole run.
	lat, _ := rn.classLatencies()
	for _, k := range []opKind{opWrite, opRead, opScan} {
		if k == opScan && w.scanFrac == 0 {
			rep.idle("scan_p50_ms", "ms", "workload issues no scans")
			continue
		}
		if v, n, ok := rn.windowedPercentile(k, 0.50, window); ok {
			rep.add(k.String()+"_p50_ms", v, "ms", n)
		}
		qs := []float64{0.90, 0.99}
		if k == opScan {
			qs = qs[:1]
		}
		rep.percentiles(k.String(), lat[k], qs...)
	}
	perWindow := make([]int, windows)
	for _, r := range rn.res {
		if r.Err == nil {
			perWindow[subWindow(r.Due, window)]++
		}
	}
	var cpuPerOp []float64
	for k, n := range perWindow {
		if n > 0 {
			cpuPerOp = append(cpuPerOp, ms(cpuAt[k+1]-cpuAt[k])/float64(n))
		}
	}
	rep.add("cpu_ms_per_op", iqm(cpuPerOp), "ms", len(rn.res))
	rep.add("rss_mb", iqm(peaks), "MiB", len(peaks))
	rep.add("rss_run_mb", rss, "MiB", 0)
	rep.add("setup_s", median(setupTimes), "s", len(setupTimes))
	rep.lateness(rn.lateness())

	if o.capacity {
		capOps, steps, err := capacitySearch(w, s, rep)
		if err != nil {
			return err
		}
		rep.add("capacity_ops", capOps, "ops/s", steps)
	}

	// Correctness on the final state, then durability: SIGKILL, restart
	// on the same data directory, and compare with the pre-kill barrier.
	caps := s.src.base.SiteCapacity
	pre, preAlloc, err := barrier(srv.cl)
	if err != nil {
		return err
	}
	if err := checkAllocation(caps, w.policy, pre, preAlloc, s.lg); err != nil {
		rep.fail("correctness: %v", err)
	}
	var restarts []float64
	for i := 0; i < recoveries; i++ {
		d, err := srv.restart(o.nproc)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		restarts = append(restarts, d.Seconds())
		if i > 0 {
			continue
		}
		post, postAlloc, err := barrier(srv.cl)
		if err != nil {
			return fmt.Errorf("after recovery: %w", err)
		}
		if err := checkRecovered(pre, post, preAlloc, postAlloc, s.src.base.Scale()); err != nil {
			rep.fail("durability: %v", err)
		}
		if err := checkAllocation(caps, w.policy, post, postAlloc, s.lg); err != nil {
			rep.fail("durability: recovered state: %v", err)
		}
	}
	rep.add("recovery_s", iqm(restarts), "s", len(restarts))
	if rep.attempted > 0 {
		rep.add("error_ratio", float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
	}
	return nil
}

// capacitySearch finds the highest offered rate of the workload's mix at
// which the SLO class's p99 stays within the workload's limit and the
// backlog does not grow, by a multiplicative step search refined by
// bisection to 5% resolution.
func capacitySearch(w *workloadSpec, s *rig, rep *report) (float64, int, error) {
	frac := map[opKind]float64{opWrite: 1 - w.readFrac - w.scanFrac, opRead: w.readFrac, opScan: w.scanFrac}[w.sloClass]
	steps := 0
	meets := func(rate float64) (bool, error) {
		steps++
		// Enough SLO-class samples for a reportable p99.
		secs := min(max(1100/(rate*frac), 2), 10)
		ops, err := s.src.schedule(rate, time.Duration(secs*float64(time.Second)))
		if err != nil {
			return false, err
		}
		rn := (&loader{cl: s.srv.cl}).execute(ops, time.Duration(secs*float64(time.Second)))
		rep.count(rn)
		s.lg.record(rn)
		lat, failed := rn.classLatencies()
		p99, _ := percentile(lat[w.sloClass], 0.99)
		ok := failed == 0 && p99 <= w.sloMs && rn.backlog <= max(20, len(ops)/20)
		fmt.Printf("  capacity step %.0f ops/s: %s p99 %.2f ms, backlog %d -> %v\n", rate, w.sloClass, p99, rn.backlog, ok)
		return ok, nil
	}
	lo, hi := 0.0, 0.0
	for r := w.rate; hi == 0; r *= 1.5 {
		ok, err := meets(r)
		if err != nil {
			return 0, steps, err
		}
		if ok {
			lo = r
		} else {
			hi = r
		}
		if steps > 12 {
			return lo, steps, nil
		}
	}
	if lo == 0 {
		lo = hi / 8
	}
	for hi/lo > 1.05 {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, steps, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, steps, nil
}

// commit names the source revision the benchmark was built from, when the
// build could see it.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown (not built inside a git checkout)"
}
