package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/scheduler"
	"repro/internal/serve"
)

// churnResult is the machine-readable record of -mode churn
// (BENCH_incremental.json in CI): the same component-local mutation
// stream replayed with and without incremental re-solving.
type churnResult struct {
	Benchmark           string   `json:"benchmark"`
	Env                 benchEnv `json:"env"`
	Components          int      `json:"components"`
	JobsPerComponent    int      `json:"jobs_per_component"`
	SitesPerComponent   int      `json:"sites_per_component"`
	Mutations           int      `json:"mutations"`
	ZipfSkew            float64  `json:"zipf_skew"`
	GOMAXPROCS          int      `json:"gomaxprocs"`
	IncrementalMedianNS int64    `json:"incremental_median_ns"`
	FullMedianNS        int64    `json:"full_median_ns"`
	Ratio               float64  `json:"full_over_incremental"`
	LastReused          int      `json:"last_reused"`
	LastResolved        int      `json:"last_resolved"`
	CacheHits           int64    `json:"cache_hits"`
	CacheMisses         int64    `json:"cache_misses"`
	CacheHitRatio       float64  `json:"cache_hit_ratio"`
	GlobalInvalidations int64    `json:"global_invalidations"`
}

// runChurn replays one generated churn stream through both scheduler
// configurations, prints a comparison, and optionally writes the JSON
// record.
func runChurn(o options) error {
	ch := churnStream(o)
	inc, incSC, err := replay(ch, scheduler.Config{}, serve.Config{}, nil)
	if err != nil {
		return err
	}
	full, _, err := replay(ch, scheduler.Config{DisableIncremental: true}, serve.Config{}, nil)
	if err != nil {
		return err
	}
	incNS, fullNS := percentile(inc, 50), percentile(full, 50)
	incStats := incSC.Stats()

	res := churnResult{
		Benchmark:           "incremental_churn",
		Env:                 captureEnv(),
		Components:          o.components,
		JobsPerComponent:    o.jobs,
		SitesPerComponent:   o.sites,
		Mutations:           o.mutations,
		ZipfSkew:            o.zipf,
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		IncrementalMedianNS: incNS,
		FullMedianNS:        fullNS,
		Ratio:               float64(fullNS) / float64(incNS),
		LastReused:          incStats.LastReused,
		LastResolved:        incStats.LastResolved,
		CacheHits:           incStats.CacheHits,
		CacheMisses:         incStats.CacheMisses,
		CacheHitRatio:       cacheHitRatio(incStats),
		GlobalInvalidations: incStats.GlobalInvalidations,
	}

	fmt.Printf("Churn benchmark: %d components x %d jobs x %d sites, %d single-component mutations (zipf %.2f), GOMAXPROCS=%d\n\n",
		o.components, o.jobs, o.sites, o.mutations, o.zipf, res.GOMAXPROCS)
	fmt.Printf("%-14s %20s\n", "path", "median commit")
	fmt.Printf("%-14s %20v\n", "full resolve", time.Duration(fullNS).Round(time.Microsecond))
	fmt.Printf("%-14s %20v\n", "incremental", time.Duration(incNS).Round(time.Microsecond))
	fmt.Printf("\nfull/incremental: %.2fx  (last solve: %d reused, %d re-solved; cache %d hits / %d misses)\n",
		res.Ratio, res.LastReused, res.LastResolved, res.CacheHits, res.CacheMisses)
	return writeResult(o.out, res)
}
