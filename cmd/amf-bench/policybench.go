package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// policyBenchRow is one policy's measurement in the -mode policybench
// JSON file (BENCH_policy.json in CI).
type policyBenchRow struct {
	Policy         string  `json:"policy"`
	Incremental    bool    `json:"incremental"`
	MedianCommitNS int64   `json:"median_commit_ns"`
	P99CommitNS    int64   `json:"p99_commit_ns"`
	LastReused     int     `json:"last_reused"`
	LastResolved   int     `json:"last_resolved"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
}

// policyBenchResult is the machine-readable record for the whole sweep:
// the SAME churn stream replayed through one serving engine per fairness
// policy.
type policyBenchResult struct {
	Benchmark         string           `json:"benchmark"`
	Env               benchEnv         `json:"env"`
	Components        int              `json:"components"`
	JobsPerComponent  int              `json:"jobs_per_component"`
	SitesPerComponent int              `json:"sites_per_component"`
	Mutations         int              `json:"mutations"`
	ZipfSkew          float64          `json:"zipf_skew"`
	GOMAXPROCS        int              `json:"gomaxprocs"`
	Policies          []policyBenchRow `json:"policies"`
}

// runPolicyBench replays one generated churn stream through each
// requested policy, prints a comparison table, and optionally writes the
// JSON record.
func runPolicyBench(o options) error {
	names := policy.Names()
	if o.policies != "" {
		names = nil
		for _, n := range strings.Split(o.policies, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	ch := churnStream(o)

	res := policyBenchResult{
		Benchmark:         "policy_churn",
		Env:               captureEnv(),
		Components:        o.components,
		JobsPerComponent:  o.jobs,
		SitesPerComponent: o.sites,
		Mutations:         o.mutations,
		ZipfSkew:          o.zipf,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
	}

	fmt.Printf("Policy benchmark: %d components x %d jobs x %d sites, %d mutations (zipf %.2f), GOMAXPROCS=%d\n\n",
		o.components, o.jobs, o.sites, o.mutations, o.zipf, res.GOMAXPROCS)
	fmt.Printf("%-14s %14s %14s %12s\n", "policy", "median commit", "p99 commit", "cache hit%")

	for _, name := range names {
		pol, err := policy.ForName(name)
		if err != nil {
			return err
		}
		times, sc, err := replay(ch, scheduler.Config{Policy: pol}, serve.Config{}, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		st := sc.Stats()
		row := policyBenchRow{
			Policy:         pol.Name(),
			Incremental:    pol.Capabilities().Incremental,
			MedianCommitNS: percentile(times, 50),
			P99CommitNS:    percentile(times, 99),
			LastReused:     st.LastReused,
			LastResolved:   st.LastResolved,
			CacheHits:      st.CacheHits,
			CacheMisses:    st.CacheMisses,
			CacheHitRatio:  cacheHitRatio(st),
		}
		res.Policies = append(res.Policies, row)
		hit := "-"
		if row.CacheHits+row.CacheMisses > 0 {
			hit = fmt.Sprintf("%.1f%%", 100*row.CacheHitRatio)
		}
		fmt.Printf("%-14s %14v %14v %12s\n", name,
			time.Duration(row.MedianCommitNS).Round(time.Microsecond),
			time.Duration(row.P99CommitNS).Round(time.Microsecond), hit)
	}
	return writeResult(o.out, res)
}
