package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

// obsResult is the machine-readable record of -mode obs (BENCH_obs.json
// in CI): the same mutation stream replayed with observability off (no
// metrics registry, no tracing) and fully on (shared registry + commit
// tracing).
type obsResult struct {
	Benchmark         string   `json:"benchmark"`
	Env               benchEnv `json:"env"`
	Components        int      `json:"components"`
	JobsPerComponent  int      `json:"jobs_per_component"`
	SitesPerComponent int      `json:"sites_per_component"`
	Mutations         int      `json:"mutations"`
	Reps              int      `json:"reps"`
	GOMAXPROCS        int      `json:"gomaxprocs"`
	// Median acknowledged commit latency per configuration (best median
	// across reps, to shed scheduler noise).
	PlainMedianNS int64 `json:"plain_median_ns"`
	ObsMedianNS   int64 `json:"obs_median_ns"`
	// OverheadPct is (obs - plain) / plain × 100: the full observability
	// stack's per-commit cost. The acceptance bound is < 3%.
	OverheadPct float64 `json:"overhead_pct"`
	// Span coverage of the recorded traces: mean and minimum ratio of
	// summed non-detail span time to whole-commit wall time. The
	// acceptance bound is within 10% of 1.
	SpanSumRatioMean float64 `json:"span_sum_ratio_mean"`
	SpanSumRatioMin  float64 `json:"span_sum_ratio_min"`
	TracesRecorded   int     `json:"traces_recorded"`
}

// runObsBench measures the observability overhead over o.trials
// alternating repetitions and optionally writes the JSON record and a
// CPU profile of the last instrumented pass.
func runObsBench(o options) error {
	o.zipf = 0 // the overhead is measured on a uniform stream
	ch := churnStream(o)

	var plainBest, obsBest int64
	var lastTraces []*span.Trace
	// Run the two configurations in alternating order across reps (heap
	// and GC state drift over a process's life, so a fixed order would
	// systematically bias whichever pass runs later) and keep each
	// configuration's best median.
	for rep := 0; rep < o.trials; rep++ {
		for _, instrumented := range []bool{rep%2 == 1, rep%2 == 0} {
			profile := ""
			if instrumented && rep == o.trials-1 {
				profile = o.cpuprofile
			}
			ns, traces, err := obsPass(ch, instrumented, profile)
			if err != nil {
				return err
			}
			if instrumented {
				if obsBest == 0 || ns < obsBest {
					obsBest = ns
				}
				lastTraces = traces
			} else if plainBest == 0 || ns < plainBest {
				plainBest = ns
			}
		}
	}

	res := obsResult{
		Benchmark:         "observability_overhead",
		Env:               captureEnv(),
		Components:        o.components,
		JobsPerComponent:  o.jobs,
		SitesPerComponent: o.sites,
		Mutations:         o.mutations,
		Reps:              o.trials,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		PlainMedianNS:     plainBest,
		ObsMedianNS:       obsBest,
		OverheadPct:       100 * (float64(obsBest) - float64(plainBest)) / float64(plainBest),
		TracesRecorded:    len(lastTraces),
	}
	res.SpanSumRatioMean, res.SpanSumRatioMin = spanCoverage(lastTraces)

	fmt.Printf("Observability benchmark: %d components x %d jobs x %d sites, %d mutations, %d reps, GOMAXPROCS=%d\n\n",
		o.components, o.jobs, o.sites, o.mutations, o.trials, res.GOMAXPROCS)
	fmt.Printf("%-24s %20s\n", "configuration", "median commit")
	fmt.Printf("%-24s %20v\n", "plain", time.Duration(plainBest).Round(time.Microsecond))
	fmt.Printf("%-24s %20v\n", "metrics+tracing", time.Duration(obsBest).Round(time.Microsecond))
	fmt.Printf("\noverhead: %+.2f%%  (bound < 3%%)\n", res.OverheadPct)
	fmt.Printf("span coverage: mean %.3f, min %.3f over %d traces  (bound: within 10%% of 1)\n",
		res.SpanSumRatioMean, res.SpanSumRatioMin, res.TracesRecorded)
	return writeResult(o.out, res)
}

// obsPass replays the stream with observability off or fully on,
// returning the median acknowledged mutation latency and (when
// instrumented) the recorded traces. A non-empty cpuprofile captures the
// timed replay.
func obsPass(ch *workload.Churn, instrumented bool, cpuprofile string) (int64, []*span.Trace, error) {
	var cfg serve.Config
	var rec *span.Recorder
	if instrumented {
		rec = span.NewRecorder(4096)
		cfg.Metrics = obs.NewRegistry()
		cfg.Traces = rec
		// The slow-trace retention ring is part of the default stack now;
		// its insert cost belongs in the measured overhead.
		cfg.SlowTraces = span.NewSlowRecorder(32, time.Hour)
	}
	var profile io.Writer
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return 0, nil, err
		}
		defer f.Close()
		profile = f
	}
	times, _, err := replay(ch, scheduler.Config{}, cfg, profile)
	if err != nil {
		return 0, nil, err
	}
	var traces []*span.Trace
	if rec != nil {
		traces = rec.Recent(0)
	}
	return percentile(times, 50), traces, nil
}

// spanCoverage reports the mean and minimum SpanSum/Total ratio across
// traces (1, 1 for an empty set).
func spanCoverage(traces []*span.Trace) (mean, minR float64) {
	if len(traces) == 0 {
		return 1, 1
	}
	minR = 2
	var sum float64
	for _, t := range traces {
		r := 1.0
		if t.Total > 0 {
			r = t.SpanSum() / t.Total
		}
		sum += r
		if r < minR {
			minR = r
		}
	}
	return sum / float64(len(traces)), minR
}
