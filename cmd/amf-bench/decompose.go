package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// decomposeResult is the machine-readable record of -mode decompose
// (BENCH_solver.json in CI): the same block-diagonal sparse instance
// solved by the monolithic single-network path and by the
// component-decomposed parallel path.
type decomposeResult struct {
	Benchmark         string   `json:"benchmark"`
	Env               benchEnv `json:"env"`
	Components        int      `json:"components"`
	JobsPerComponent  int      `json:"jobs_per_component"`
	SitesPerComponent int      `json:"sites_per_component"`
	Trials            int      `json:"trials"`
	GOMAXPROCS        int      `json:"gomaxprocs"`
	MonoMedianNS      int64    `json:"mono_median_ns"`
	DecompMedianNS    int64    `json:"decomposed_median_ns"`
	Ratio             float64  `json:"mono_over_decomposed"`
	SolvedComponents  int      `json:"solved_components"`
	LargestComponent  int      `json:"largest_component"`
	ParallelSpeedup   float64  `json:"parallel_speedup"`
}

// runDecompose times both solver paths over the same warm solver per
// mode, prints a comparison, and optionally writes the JSON record.
func runDecompose(o options) error {
	in := workload.GenerateSparse(workload.SparseConfig{
		Components:        o.components,
		JobsPerComponent:  o.jobs,
		SitesPerComponent: o.sites,
		Seed:              o.seed,
	})
	mono := &core.Solver{SkipJCTRefine: true, Monolithic: true}
	dec := &core.Solver{SkipJCTRefine: true}

	monoNS, err := timeSolves(mono, in, o.trials)
	if err != nil {
		return err
	}
	decNS, err := timeSolves(dec, in, o.trials)
	if err != nil {
		return err
	}
	st := dec.LastStats()

	res := decomposeResult{
		Benchmark:         "decompose",
		Env:               captureEnv(),
		Components:        o.components,
		JobsPerComponent:  o.jobs,
		SitesPerComponent: o.sites,
		Trials:            o.trials,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		MonoMedianNS:      monoNS,
		DecompMedianNS:    decNS,
		Ratio:             float64(monoNS) / float64(decNS),
		SolvedComponents:  st.Components,
		LargestComponent:  st.LargestComponent,
		ParallelSpeedup:   st.Speedup,
	}

	fmt.Printf("Decomposition benchmark: %d components x %d jobs x %d sites, %d trials, GOMAXPROCS=%d\n\n",
		o.components, o.jobs, o.sites, o.trials, res.GOMAXPROCS)
	fmt.Printf("%-12s %16s\n", "path", "median solve")
	fmt.Printf("%-12s %16v\n", "monolithic", time.Duration(monoNS).Round(time.Microsecond))
	fmt.Printf("%-12s %16v\n", "decomposed", time.Duration(decNS).Round(time.Microsecond))
	fmt.Printf("\nmono/decomposed: %.2fx  (components=%d largest=%d parallel speedup=%.2fx)\n",
		res.Ratio, st.Components, st.LargestComponent, st.Speedup)
	return writeResult(o.out, res)
}

// timeSolves returns the median wall time of trials AMF solves on a warm
// solver (one untimed warm-up populates the scratch pool first).
func timeSolves(sv *core.Solver, in *core.Instance, trials int) (int64, error) {
	if _, err := sv.AMF(in); err != nil {
		return 0, err
	}
	times := make([]int64, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		if _, err := sv.AMF(in); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Nanoseconds())
	}
	return percentile(sortNS(times), 50), nil
}
