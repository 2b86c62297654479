package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// prom is one scrape of the Prometheus exposition page: series
// ("name{labels}") to value. Behind the router the page federates every
// shard's series under a shard label.
type prom map[string]float64

func scrapeProm(hc *http.Client, addr string) (prom, error) {
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (prom, error) {
	p := prom{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		p[line[:i]] = v
	}
	return p, sc.Err()
}

// sum adds the series of metric name whose label set contains every
// given label pair (e.g. `route="GET /v1/allocation"`).
func (p prom) sum(name string, labels ...string) float64 {
	var s float64
	for series, v := range p {
		base, lab, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			s += v
		}
	}
	return s
}

// minus returns the per-series difference p − base.
func (p prom) minus(base prom) prom {
	d := prom{}
	for k, v := range p {
		d[k] = v - base[k]
	}
	return d
}

// meanUS is the mean of a latency histogram's observations in µs.
func (p prom) meanUS(hist string, labels ...string) float64 {
	n := p.sum(hist+"_count", labels...)
	if n == 0 {
		return 0
	}
	return p.sum(hist+"_sum", labels...) / n * 1e6
}

var writeRoutes = []string{
	`route="POST /v1/jobs"`,
	`route="DELETE /v1/jobs/{id}"`,
	`route="POST /v1/jobs/{id}/progress"`,
	`route="PUT /v1/jobs/{id}/weight"`,
}

// writeHandlerUS is the server's mean handler time over the write routes.
func (p prom) writeHandlerUS() float64 {
	var sum, n float64
	for _, r := range writeRoutes {
		sum += p.sum("amf_http_request_latency_seconds_sum", r)
		n += p.sum("amf_http_request_latency_seconds_count", r)
	}
	if n == 0 {
		return 0
	}
	return sum / n * 1e6
}

// traceSet splits a GET /v1/traces forest into engine commit traces and
// router-level traces (which carry the commit traces as Children).
type traceSet struct {
	commits []*span.Trace
	routed  []*span.Trace
}

// isRouted reports whether t is a router-level trace: recorded by the
// router itself (no shard label) with the router's own stages.
func isRouted(t *span.Trace) bool {
	if t.Shard != "" {
		return false
	}
	for _, s := range t.Spans {
		switch s.Name {
		case "route", "shard_commit", "weight_broadcast":
			return true
		}
	}
	return false
}

func splitTraces(forest []*span.Trace) traceSet {
	var ts traceSet
	for _, t := range forest {
		if isRouted(t) {
			ts.routed = append(ts.routed, t)
			ts.commits = append(ts.commits, t.Children...)
			continue
		}
		ts.commits = append(ts.commits, t)
	}
	return ts
}

// stageUS returns each stage's mean wall time per trace in µs over ts,
// counting traces where the stage is absent as zero. Detail spans
// (per-component solves) are reported as counts per trace instead.
func stageUS(ts []*span.Trace) (stages map[string]float64, details map[string]float64) {
	stages, details = map[string]float64{}, map[string]float64{}
	if len(ts) == 0 {
		return
	}
	for _, t := range ts {
		for _, s := range t.Spans {
			if s.Detail {
				details[s.Name]++
			} else {
				stages[s.Name] += s.Duration * 1e6
			}
		}
	}
	n := float64(len(ts))
	for k := range stages {
		stages[k] /= n
	}
	for k := range details {
		details[k] /= n
	}
	return
}

// coverage is each commit trace's instrumented fraction, Σ stage spans /
// total: the share of its wall time the spans account for.
func coverage(ts []*span.Trace) []float64 {
	var xs []float64
	for _, t := range ts {
		if t.Total > 0 {
			xs = append(xs, t.SpanSum()/t.Total)
		}
	}
	return xs
}

// shardCommitSelfUS is the mean self time of the router's shard_commit
// span: its duration minus the part the shard's own commit trace (its
// stitched child) covers — the routing hop's cost outside the engine.
func shardCommitSelfUS(routed []*span.Trace) float64 {
	var xs []float64
	for _, t := range routed {
		for _, s := range t.Spans {
			if s.Name != "shard_commit" {
				continue
			}
			parent := interval{s.Start, s.Start + s.Duration}
			var kids []interval
			for _, c := range t.Children {
				off := c.Start.Sub(t.Start).Seconds()
				kids = append(kids, interval{off, off + c.Total})
			}
			xs = append(xs, selfTime(parent, kids)*1e6)
		}
	}
	return mean(xs)
}

// joinWrites matches each traced write to the server-side trace that
// carries its request ID and returns the mean client residual — client
// time from send to reply minus that trace's total — and how many
// joined. Behind a router the trace is the router-level one, so only
// writes still in the router's ring join; otherwise it is the commit.
func joinWrites(rn *run, ts traceSet) (residualUS float64, joined int) {
	byReq := map[string]*span.Trace{}
	top := ts.commits
	if len(ts.routed) > 0 {
		top = ts.routed
	}
	for _, t := range top {
		for _, id := range t.Requests {
			byReq[string(id)] = t
		}
		if len(t.Requests) == 0 && t.ID != "" {
			byReq[string(t.ID)] = t
		}
	}
	var xs []float64
	for i, r := range rn.res {
		if rn.ops[i].Kind != opWrite || r.Err != nil {
			continue
		}
		t, ok := byReq[r.Trace]
		if !ok {
			continue
		}
		xs = append(xs, us(r.Done-r.Sent)-t.Total*1e6)
	}
	return mean(xs), len(xs)
}

// handlerProbe times api.Server.Handler().ServeHTTP in process, over an
// engine restored from snapshot, for the read endpoints the program does
// not trace: median handler time, response bytes and allocations per
// request.
type handlerProbe struct {
	sharesUS, allocationUS float64
	allocationBytes        int
	allocationAllocs       float64
}

func probeHandlers(caps []float64, polName string, snap scheduler.Snapshot, seed uint64) (handlerProbe, error) {
	var hp handlerProbe
	pol, err := policy.ForName(polName)
	if err != nil {
		return hp, err
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		return hp, err
	}
	snap.ExternalWeight = 0
	snap.Phase = nil
	if err := sc.Restore(snap); err != nil {
		return hp, err
	}
	eng, err := serve.New(sc, serve.Config{})
	if err != nil {
		return hp, err
	}
	defer eng.Close()
	h := api.NewEngineServer(eng, nil, caps, pol).Handler()
	serveOnce := func(path string) (time.Duration, *httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(context.Background())
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			return d, rec, fmt.Errorf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return d, rec, nil
	}

	const scanReps = 30
	var xs []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < scanReps; i++ {
		d, rec, err := serveOnce("/v1/allocation")
		if err != nil {
			return hp, err
		}
		xs = append(xs, us(d))
		hp.allocationBytes = rec.Body.Len()
	}
	runtime.ReadMemStats(&after)
	hp.allocationUS = median(xs)
	hp.allocationAllocs = float64(after.Mallocs-before.Mallocs) / scanReps

	rng := rand.New(rand.NewPCG(seed, 7))
	xs = xs[:0]
	for i := 0; i < 500; i++ {
		id := snap.Jobs[rng.IntN(len(snap.Jobs))].ID
		d, _, err := serveOnce("/v1/jobs/" + id + "/shares")
		if err != nil {
			return hp, err
		}
		xs = append(xs, us(d))
	}
	hp.sharesUS = median(xs)
	return hp, nil
}
