package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// walbenchResult is the machine-readable record of -mode wal
// (BENCH_wal.json in CI): the same concurrent mutation workload runs
// through a batched engine once in-memory and once with a write-ahead
// log, and the acknowledged per-mutation latency is compared. Group
// commit is the whole point — every mutation in a batch shares one
// fsync, so the durable path should stay within a small constant factor
// of the in-memory one.
type walbenchResult struct {
	Benchmark      string   `json:"benchmark"`
	Env            benchEnv `json:"env"`
	Mutators       int      `json:"mutators"`
	Jobs           int      `json:"jobs"`
	Sites          int      `json:"sites"`
	OpsPerMutator  int      `json:"ops_per_mutator"`
	BatchMax       int      `json:"batch_max"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	MemoryMedianNS int64    `json:"memory_median_ns"`
	MemoryP95NS    int64    `json:"memory_p95_ns"`
	WALMedianNS    int64    `json:"wal_median_ns"`
	WALP95NS       int64    `json:"wal_p95_ns"`
	Ratio          float64  `json:"wal_over_memory"`
	FsyncP95NS     int64    `json:"fsync_p95_ns"`
	AppendP95NS    int64    `json:"append_p95_ns"`
	Commits        int64    `json:"commits"`
	Compactions    int64    `json:"compactions"`
}

// runWALBench runs both configurations and prints the comparison.
func runWALBench(o options) error {
	if o.batch <= 0 {
		o.batch = o.mutators
	}
	memMed, memP95, _, err := walbenchPass(o, "")
	if err != nil {
		return err
	}
	dir := o.dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "amf-walbench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	walMed, walP95, walReg, err := walbenchPass(o, dir)
	if err != nil {
		return err
	}

	res := walbenchResult{
		Benchmark:      "wal_overhead",
		Env:            captureEnv(),
		Mutators:       o.mutators,
		Jobs:           o.jobs,
		Sites:          o.sites,
		OpsPerMutator:  o.mutations,
		BatchMax:       o.batch,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		MemoryMedianNS: memMed,
		MemoryP95NS:    memP95,
		WALMedianNS:    walMed,
		WALP95NS:       walP95,
		Ratio:          float64(walMed) / float64(memMed),
		FsyncP95NS:     int64(walReg.Histogram("wal.fsync_latency").Quantile(0.95) * 1e9),
		AppendP95NS:    int64(walReg.Histogram("wal.append_latency").Quantile(0.95) * 1e9),
		Commits:        walReg.Counter("engine.commits_total").Value(),
		Compactions:    walReg.Counter("wal.compactions_total").Value(),
	}

	fmt.Printf("WAL overhead: %d mutators x %d ops, %d jobs x %d sites, batch-max %d, GOMAXPROCS=%d\n\n",
		o.mutators, o.mutations, o.jobs, o.sites, o.batch, res.GOMAXPROCS)
	fmt.Printf("%-10s %18s %18s\n", "mode", "ack median", "ack p95")
	fmt.Printf("%-10s %18v %18v\n", "in-memory",
		time.Duration(memMed).Round(time.Microsecond), time.Duration(memP95).Round(time.Microsecond))
	fmt.Printf("%-10s %18v %18v\n", "wal",
		time.Duration(walMed).Round(time.Microsecond), time.Duration(walP95).Round(time.Microsecond))
	fmt.Printf("\nwal/in-memory acknowledged latency: %.2fx  (fsync p95 %v, %d commits, %d compactions)\n",
		res.Ratio, time.Duration(res.FsyncP95NS).Round(time.Microsecond), res.Commits, res.Compactions)
	return writeResult(o.out, res)
}

// walbenchPass runs the workload through one engine configuration
// (durable iff dir != "") and returns the median and p95 acknowledged
// mutation latency plus the metrics registry for WAL telemetry.
func walbenchPass(o options, dir string) (int64, int64, *obs.Registry, error) {
	caps := make([]float64, o.sites)
	for s := range caps {
		caps[s] = float64(o.jobs) / float64(o.sites)
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps})
	if err != nil {
		return 0, 0, nil, err
	}
	reg := obs.NewRegistry()
	cfg := serve.Config{MaxBatch: o.batch, BatchWindow: o.window, Metrics: reg}
	if dir != "" {
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return 0, 0, nil, err
		}
		cfg.Log = l
	}
	eng, err := serve.New(sc, cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	defer eng.Close()

	for j := 0; j < o.jobs; j++ {
		demand := make([]float64, o.sites)
		demand[j%o.sites] = 2
		demand[(j+1)%o.sites] = 1
		if err := eng.AddJob(context.Background(), fmt.Sprintf("job-%d", j), 1, demand, nil); err != nil {
			return 0, 0, nil, err
		}
	}

	lat := make([][]int64, o.mutators)
	var wg sync.WaitGroup
	errs := make(chan error, o.mutators)
	for w := 0; w < o.mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			times := make([]int64, 0, o.mutations)
			for i := 0; i < o.mutations; i++ {
				id := fmt.Sprintf("job-%d", (w+i*o.mutators)%o.jobs)
				weight := 1 + float64((i*7+w*3)%13)/13
				start := time.Now()
				if err := eng.UpdateWeight(context.Background(), id, weight); err != nil {
					errs <- err
					return
				}
				times = append(times, time.Since(start).Nanoseconds())
			}
			lat[w] = times
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, 0, nil, err
	default:
	}

	var all []int64
	for _, times := range lat {
		all = append(all, times...)
	}
	sortNS(all)
	return percentile(all, 50), percentile(all, 95), reg, nil
}
