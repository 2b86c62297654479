package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// defaultLargegraphTiers grows edge count ~4x per tier while keeping the
// job count (which drives the exact path's freeze-round count, and with
// it the exact baseline's runtime) in the minutes-at-worst regime.
const defaultLargegraphTiers = "1000:64:16,2000:256:32,4000:512:64,10000:1024:100"

// largegraphTier is one rung of the sweep in the machine-readable output.
type largegraphTier struct {
	Jobs   int `json:"jobs"`
	Sites  int `json:"sites"`
	Degree int `json:"degree"`
	Edges  int `json:"edges"`
	// ExactNS is a single timed exact solve (the baseline is far too slow
	// to repeat at the large tiers); ApproxNS is the median of -trials.
	ExactNS  int64   `json:"exact_ns"`
	ApproxNS int64   `json:"approx_ns"`
	Speedup  float64 `json:"speedup"`
	// MaxDeviation is the measured max per-job |aggregate_exact -
	// aggregate_approx|; Budget is epsilon * instance scale, the bound the
	// solver certifies; ErrorBound is the solver's own reported bound.
	MaxDeviation float64 `json:"max_deviation"`
	Budget       float64 `json:"budget"`
	ErrorBound   float64 `json:"error_bound"`
}

// largegraphResult is the machine-readable record of -mode largegraph
// (BENCH_largegraph.json in CI): exact vs approximate water-filling over
// a ladder of single-component bipartite graphs growing to ~10^6 demand
// edges.
type largegraphResult struct {
	Benchmark string           `json:"benchmark"`
	Env       benchEnv         `json:"env"`
	Epsilon   float64          `json:"epsilon"`
	Seed      uint64           `json:"seed"`
	Tiers     []largegraphTier `json:"tiers"`
}

func parseLargegraphTiers(s string) ([][3]int, error) {
	var tiers [][3]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("tier %q: want jobs:sites:degree", part)
		}
		var t [3]int
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("tier %q: bad field %q", part, f)
			}
			t[i] = v
		}
		tiers = append(tiers, t)
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("no tiers in %q", s)
	}
	return tiers, nil
}

// runLargegraph sweeps the tier ladder: per tier, one timed exact solve,
// trials timed approximate solves (median), and the measured max per-job
// deviation against the epsilon budget.
func runLargegraph(o options) error {
	if o.epsilon <= 0 || math.IsNaN(o.epsilon) || math.IsInf(o.epsilon, 0) {
		return fmt.Errorf("-epsilon must be a positive finite fraction, got %g", o.epsilon)
	}
	tiers, err := parseLargegraphTiers(o.tiers)
	if err != nil {
		return err
	}
	seed := o.seed
	if seed == 0 {
		seed = 2019
	}

	res := largegraphResult{
		Benchmark: "largegraph_approx",
		Env:       captureEnv(),
		Epsilon:   o.epsilon,
		Seed:      seed,
	}
	fmt.Printf("Large-graph approximation sweep: epsilon %g, %d approx trials per tier, GOMAXPROCS=%d\n\n",
		o.epsilon, o.trials, res.Env.GOMAXPROCS)
	fmt.Printf("%8s %6s %7s %9s %12s %12s %9s %12s %12s\n",
		"jobs", "sites", "degree", "edges", "exact", "approx", "speedup", "maxdev", "budget")

	for ti, t := range tiers {
		jobs, sites, degree := t[0], t[1], t[2]
		in := workload.GenerateLargeGraph(workload.LargeGraphConfig{
			Jobs:   jobs,
			Sites:  sites,
			Degree: degree,
			Seed:   seed + uint64(ti),
		})
		edges := 0
		for _, row := range in.Demand {
			for _, d := range row {
				if d > 0 {
					edges++
				}
			}
		}

		exact := core.NewSolver()
		start := time.Now()
		want, err := exact.AMF(in)
		if err != nil {
			return fmt.Errorf("tier %d exact: %w", ti, err)
		}
		exactNS := time.Since(start).Nanoseconds()

		approx := &core.Solver{ApproxEpsilon: o.epsilon, ApproxThreshold: 1}
		var got *core.Allocation
		samples := make([]int64, 0, o.trials)
		for k := 0; k < o.trials; k++ {
			start = time.Now()
			got, err = approx.AMF(in)
			if err != nil {
				return fmt.Errorf("tier %d approx: %w", ti, err)
			}
			samples = append(samples, time.Since(start).Nanoseconds())
		}
		approxNS := percentile(sortNS(samples), 50)

		var maxdev float64
		for j := 0; j < in.NumJobs(); j++ {
			if dev := math.Abs(got.Aggregate(j) - want.Aggregate(j)); dev > maxdev {
				maxdev = dev
			}
		}
		tier := largegraphTier{
			Jobs: jobs, Sites: sites, Degree: degree, Edges: edges,
			ExactNS:      exactNS,
			ApproxNS:     approxNS,
			Speedup:      float64(exactNS) / float64(approxNS),
			MaxDeviation: maxdev,
			Budget:       o.epsilon * in.Scale(),
			ErrorBound:   approx.LastStats().ApproxErrorBound,
		}
		res.Tiers = append(res.Tiers, tier)
		fmt.Printf("%8d %6d %7d %9d %12v %12v %8.1fx %12.4g %12.4g\n",
			jobs, sites, degree, edges,
			time.Duration(exactNS).Round(time.Millisecond),
			time.Duration(approxNS).Round(time.Millisecond),
			tier.Speedup, maxdev, tier.Budget)
		if maxdev > tier.Budget {
			return fmt.Errorf("tier %d: deviation %g exceeds budget %g", ti, maxdev, tier.Budget)
		}
	}
	return writeResult(o.out, res)
}
