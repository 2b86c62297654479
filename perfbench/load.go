package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs/span"
	"repro/internal/workload"
)

// conns is the generator's connection and worker count: at most two
// requests are on the wire at once, and requests due while both are busy
// wait in the generator's queue, a wait their latency includes.
const conns = 2

// windows is the number of equal sub-windows of a measured run. Its
// figures are interquartile means over them, so a disturbance confined
// to one sub-window (a burst of contention on a shared host, a GC cycle)
// does not move them.
const windows = 5

// opTimeout bounds one request; a request that exceeds it fails.
const opTimeout = 10 * time.Second

// result is one request's outcome. Times are offsets from the run start.
type result struct {
	Due, Disp, Sent, Done time.Duration
	Trace                 string
	Err                   error
}

// latency is the request's latency timed from when it was due.
func (r result) latency() time.Duration { return r.Done - r.Due }

// run is one open-loop run's outcome.
type run struct {
	ops     []op
	res     []result
	backlog int // requests dispatched but not finished when the last came due
	// phaseLagMax is the largest phase_lag a scan observed.
	phaseLagMax int
}

// loader drives one server through an api.Client.
type loader struct {
	cl     *api.Client
	traced bool
	// traceSeq numbers trace IDs across the loader's runs.
	traceSeq atomic.Uint64
}

// execute runs ops on schedule: one dispatcher hands each request to the
// worker queue at its due time, and conns workers send them. Requests
// with a zero due time (warm-up) all come due at once, which makes the
// run closed-loop.
func (l *loader) execute(ops []op, window time.Duration) *run {
	rn := &run{ops: ops, res: make([]result, len(ops))}
	// An evict may only be sent once its admit was acknowledged, or it
	// could overtake the admit on the other connection.
	admitted := make(map[string]chan struct{})
	for _, o := range ops {
		if o.W != nil && o.W.Kind == workload.ChurnAdd {
			admitted[o.Job] = make(chan struct{})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), window+30*time.Second)
	defer cancel()

	// Sized to the number of sends: the dispatcher never blocks on a
	// stalled server, so its lateness measures only the generator.
	queue := make(chan int, len(ops))
	var finished atomic.Int64
	var lagMu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := ops[i]
				r := &rn.res[i]
				if o.W != nil && o.W.Kind == workload.ChurnRemove {
					if ch, ok := admitted[o.Job]; ok {
						select {
						case <-ch:
						case <-ctx.Done():
						}
					}
				}
				octx, ocancel := context.WithTimeout(ctx, opTimeout)
				if l.traced {
					r.Trace = fmt.Sprintf("pb%014x", l.traceSeq.Add(1))
					octx = span.NewContext(octx, span.ID(r.Trace))
				}
				r.Sent = time.Since(start)
				lag, err := l.do(octx, o)
				r.Done = time.Since(start)
				r.Err = err
				ocancel()
				if o.W != nil && o.W.Kind == workload.ChurnAdd {
					close(admitted[o.Job])
				}
				if lag > 0 {
					lagMu.Lock()
					rn.phaseLagMax = max(rn.phaseLagMax, lag)
					lagMu.Unlock()
				}
				finished.Add(1)
			}
		}()
	}
	for i := range ops {
		if d := ops[i].Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		rn.res[i].Due = ops[i].Due
		rn.res[i].Disp = time.Since(start)
		queue <- i
	}
	rn.backlog = len(ops) - int(finished.Load())
	close(queue)
	wg.Wait()
	return rn
}

// do sends one request. It returns the phase lag a scan observed.
func (l *loader) do(ctx context.Context, o op) (int, error) {
	switch o.Kind {
	case opRead:
		_, err := l.cl.Shares(ctx, o.Job)
		return 0, err
	case opScan:
		a, err := l.cl.Allocation(ctx)
		return a.PhaseLag, err
	}
	w := o.W
	switch w.Kind {
	case workload.ChurnWeight:
		return 0, l.cl.UpdateWeight(ctx, w.Job, w.Weight)
	case workload.ChurnProgress:
		_, err := l.cl.ReportProgress(ctx, w.Job, w.Done)
		return 0, err
	case workload.ChurnAdd:
		return 0, l.cl.AddJob(ctx, api.AddJobRequest{ID: w.Job, Weight: w.Weight, Demand: w.Demand, Work: w.Work})
	case workload.ChurnRemove:
		return 0, l.cl.RemoveJob(ctx, w.Job)
	}
	return 0, fmt.Errorf("unknown mutation kind %d", w.Kind)
}

// classLatencies returns the successful requests' latencies in ms by
// class, and the number of failed requests.
func (rn *run) classLatencies() (map[opKind][]float64, int) {
	lat := map[opKind][]float64{}
	failed := 0
	for i, r := range rn.res {
		if r.Err != nil {
			failed++
			continue
		}
		k := rn.ops[i].Kind
		lat[k] = append(lat[k], ms(r.latency()))
	}
	return lat, failed
}

// lateness returns how late the dispatcher handed each request to the
// workers, in ms.
func (rn *run) lateness() []float64 {
	xs := make([]float64, len(rn.res))
	for i, r := range rn.res {
		xs[i] = ms(r.Disp - r.Due)
	}
	return xs
}

// firstError returns the first failed request's description, or "".
func (rn *run) firstError() string {
	for i, r := range rn.res {
		if r.Err != nil {
			o := rn.ops[i]
			return fmt.Sprintf("%s %s: %v", o.Kind, o.Job, r.Err)
		}
	}
	return ""
}

// subWindow returns the sub-window a due time falls in.
func subWindow(due, length time.Duration) int {
	return min(max(int(int64(due)*windows/int64(length)), 0), windows-1)
}

// windowedPercentile is the interquartile mean over the run's
// sub-windows (by due time) of the class's q-quantile latency in ms, and
// the class's sample count. When a sub-window holds too few samples for
// its quantile it falls back to the whole run's quantile; ok reports
// whether that is reportable.
func (rn *run) windowedPercentile(kind opKind, q float64, length time.Duration) (v float64, n int, ok bool) {
	per := make([][]float64, windows)
	var all []float64
	for i, r := range rn.res {
		if rn.ops[i].Kind != kind || r.Err != nil {
			continue
		}
		k := subWindow(r.Due, length)
		per[k] = append(per[k], ms(r.latency()))
		all = append(all, ms(r.latency()))
	}
	var xs []float64
	for _, p := range per {
		v, ok := percentile(p, q)
		if !ok {
			v, ok := percentile(all, q)
			return v, len(all), ok
		}
		xs = append(xs, v)
	}
	return iqm(xs), len(all), true
}
