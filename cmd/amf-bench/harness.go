package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

// benchEnv is the host fingerprint embedded in every machine-readable
// BENCH_*.json so committed results can be compared across machines and
// toolchain upgrades without guessing at the recording environment.
type benchEnv struct {
	// GOMAXPROCS is the scheduler's parallelism limit at bench time —
	// what the solver's worker pools actually got to use.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count, which can exceed
	// GOMAXPROCS under cgroup or taskset confinement.
	NumCPU int `json:"num_cpu"`
	// GoVersion is the toolchain that built the benchmark binary.
	GoVersion string `json:"go_version"`
}

// captureEnv snapshots the environment header for a benchmark result.
func captureEnv() benchEnv {
	return benchEnv{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// writeResult writes v as indented JSON to path; an empty path skips it.
func writeResult(path string, v any) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// percentile returns the p-th percentile (0 <= p < 100) of an ascending
// sample set, by nearest-rank below.
func percentile(sorted []int64, p int) int64 {
	return sorted[len(sorted)*p/100]
}

// sortNS sorts nanosecond samples ascending and returns them.
func sortNS(ns []int64) []int64 {
	sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	return ns
}

// churnStream generates the component-local mutation stream the
// churn-style modes replay: o.components blocks of o.jobs jobs over
// o.sites sites, and o.mutations ops whose component popularity follows
// Zipf skew o.zipf.
func churnStream(o options) *workload.Churn {
	return workload.GenerateChurn(workload.ChurnConfig{
		Sparse: workload.SparseConfig{
			Components:        o.components,
			JobsPerComponent:  o.jobs,
			SitesPerComponent: o.sites,
			Seed:              o.seed,
		},
		Mutations: o.mutations,
		Seed:      o.seed + 1,
		ZipfSkew:  o.zipf,
	})
}

// engineTarget adapts the context-aware engine to the ctx-less churn
// replay interface; the bench has no cancellation story.
type engineTarget struct{ eng *serve.Engine }

func (t engineTarget) AddJob(id string, weight float64, demand, work []float64) error {
	return t.eng.AddJob(context.Background(), id, weight, demand, work)
}

func (t engineTarget) RemoveJob(id string) error {
	return t.eng.RemoveJob(context.Background(), id)
}

func (t engineTarget) UpdateWeight(id string, weight float64) error {
	return t.eng.UpdateWeight(context.Background(), id, weight)
}

func (t engineTarget) ReportProgress(id string, done []float64) (bool, error) {
	return t.eng.ReportProgress(context.Background(), id, done)
}

// applyOp applies one churn op, dropping the duplicate-add and
// unknown-job errors that replaying a generated stream (or cycling it)
// produces by design.
func applyOp(t workload.ChurnTarget, op workload.ChurnOp) error {
	err := op.Apply(t)
	if errors.Is(err, scheduler.ErrUnknownJob) || errors.Is(err, scheduler.ErrDuplicateJob) {
		return nil
	}
	return err
}

// replay is the churn-style modes' one measurement loop. It builds a
// scheduler from scfg over the stream's sites and populates the base
// jobs before the engine starts (adds stay lazy, so the engine's initial
// publish performs the single warm-up solve). It then times each op's
// acknowledged apply through an unbatched engine (ecfg with MaxBatch 1:
// one commit per mutation), and returns the latencies sorted ascending
// plus the scheduler for post-run stats. A non-nil cpuprofile receives a
// CPU profile of the timed ops (the engine is already warm).
func replay(ch *workload.Churn, scfg scheduler.Config, ecfg serve.Config, cpuprofile io.Writer) ([]int64, *scheduler.Scheduler, error) {
	scfg.SiteCapacity = ch.Inst.SiteCapacity
	sc, err := scheduler.New(scfg)
	if err != nil {
		return nil, nil, err
	}
	if err := ch.Populate(sc); err != nil {
		return nil, nil, err
	}
	ecfg.MaxBatch = 1
	eng, err := serve.New(sc, ecfg)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()

	if cpuprofile != nil {
		if err := pprof.StartCPUProfile(cpuprofile); err != nil {
			return nil, nil, err
		}
		defer pprof.StopCPUProfile()
	}
	target := engineTarget{eng: eng}
	times := make([]int64, 0, len(ch.Ops))
	for _, op := range ch.Ops {
		start := time.Now()
		if err := applyOp(target, op); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Nanoseconds())
	}
	// Fold any phase-buffered deltas so telemetry read afterwards covers
	// the whole stream.
	_ = eng.Snapshot()
	return sortNS(times), sc, nil
}

// cacheHitRatio is hits / (hits + misses), 0 before any lookup.
func cacheHitRatio(st scheduler.Stats) float64 {
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		return float64(st.CacheHits) / float64(total)
	}
	return 0
}
