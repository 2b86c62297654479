package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

// contentionResult is the machine-readable record of -mode contention
// (BENCH_contention.json in CI): a skew-contended churn stream —
// component sizes and mutation popularity both Zipf, so one giant
// component absorbs most ops — replayed through the engine's exact
// ordered path and through phase reconciliation.
type contentionResult struct {
	Benchmark         string   `json:"benchmark"`
	Env               benchEnv `json:"env"`
	Components        int      `json:"components"`
	Jobs              int      `json:"jobs"`
	SitesPerComponent int      `json:"sites_per_component"`
	Mutations         int      `json:"mutations"`
	Skew              float64  `json:"skew"`
	HotThreshold      float64  `json:"hot_threshold"`
	GOMAXPROCS        int      `json:"gomaxprocs"`
	ComponentSizes    []int    `json:"component_sizes"`
	// OrderedMedianNS is the exact per-op path (phase reconciliation off —
	// the pre-phase engine); PhaseMedianNS buffers commutative ops on hot
	// components and solves once per phase boundary.
	OrderedMedianNS int64   `json:"ordered_median_ns"`
	PhaseMedianNS   int64   `json:"phase_median_ns"`
	Ratio           float64 `json:"ordered_over_phase"`
	// Phase-path telemetry.
	Buffered            int64   `json:"phase_buffered_total"`
	Reconciles          int64   `json:"phase_reconciles_total"`
	ForcedReconciles    int64   `json:"phase_forced_reconciles_total"`
	CacheHitRatioWindow float64 `json:"cache_hit_ratio_window"`
	CacheHitRatio       float64 `json:"cache_hit_ratio"`
}

// runContention replays one generated contention stream through both
// engine configurations, prints a comparison, and optionally writes the
// JSON record.
func runContention(o options) error {
	ch := workload.GenerateContention(workload.ContentionConfig{
		Components:        o.components,
		Jobs:              o.jobs,
		SitesPerComponent: o.sites,
		Mutations:         o.mutations,
		Skew:              o.zipf,
		Seed:              o.seed,
	})

	// Both passes carry a metrics registry, so the comparison isolates
	// phase reconciliation; the phase pass's registry holds its telemetry.
	ordered, _, err := replay(&ch.Churn, scheduler.Config{}, serve.Config{Metrics: obs.NewRegistry()}, nil)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	phase, phaseSC, err := replay(&ch.Churn,
		scheduler.Config{Phase: scheduler.PhaseConfig{HotThreshold: o.hotThreshold}},
		serve.Config{Metrics: reg}, nil)
	if err != nil {
		return err
	}
	orderedNS, phaseNS := percentile(ordered, 50), percentile(phase, 50)

	res := contentionResult{
		Benchmark:         "phase_contention",
		Env:               captureEnv(),
		Components:        o.components,
		Jobs:              o.jobs,
		SitesPerComponent: o.sites,
		Mutations:         o.mutations,
		Skew:              o.zipf,
		HotThreshold:      o.hotThreshold,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		ComponentSizes:    ch.Sizes,
		OrderedMedianNS:   orderedNS,
		PhaseMedianNS:     phaseNS,
		Ratio:             float64(orderedNS) / float64(phaseNS),
		Buffered:          reg.Counter("engine.phase_buffered_total").Value(),
		Reconciles:        reg.Counter("engine.phase_reconciles_total").Value(),
		ForcedReconciles:  reg.Counter("engine.phase_forced_reconciles_total").Value(),
		// The windowed companion gauge is the headline cache number: the
		// lifetime counter ratio underreports steady-state behaviour the
		// moment one policy switch or restore resets the solver (see
		// engine.cache_hit_ratio_window).
		CacheHitRatioWindow: reg.Gauge("engine.cache_hit_ratio_window").Value(),
		CacheHitRatio:       cacheHitRatio(phaseSC.Stats()),
	}

	fmt.Printf("Contention benchmark: %d jobs over %d components (sizes %v), %d mutations, skew %.2f, GOMAXPROCS=%d\n\n",
		o.jobs, o.components, ch.Sizes, o.mutations, o.zipf, res.GOMAXPROCS)
	fmt.Printf("%-22s %20s\n", "path", "median commit")
	fmt.Printf("%-22s %20v\n", "ordered (exact)", time.Duration(orderedNS).Round(time.Microsecond))
	fmt.Printf("%-22s %20v\n", "phase-reconciled", time.Duration(phaseNS).Round(time.Microsecond))
	fmt.Printf("\nordered/phase: %.2fx  (%d ops buffered, %d reconciles, %d forced; windowed cache hit ratio %.3f)\n",
		res.Ratio, res.Buffered, res.Reconciles, res.ForcedReconciles, res.CacheHitRatioWindow)
	return writeResult(o.out, res)
}
