package api

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

func newEngineTestServer(t *testing.T) (*Client, *serve.Engine) {
	t.Helper()
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{1, 1},
		Policy:       policy.AMF,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng, err := serve.New(sc, serve.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	srv := NewEngineServer(eng, reg, []float64{1, 1}, policy.AMF)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), eng
}

// TestEngineBackedLifecycle runs the job lifecycle through the batched
// engine backend: same wire behavior as the direct scheduler backend.
func TestEngineBackedLifecycle(t *testing.T) {
	c, eng := newEngineTestServer(t)
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "b", Demand: []float64{1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err == nil ||
		!strings.Contains(err.Error(), "exists") {
		t.Fatalf("duplicate add err = %v", err)
	}
	alloc, err := c.Allocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Jobs) != 2 {
		t.Fatalf("allocation has %d jobs, want 2", len(alloc.Jobs))
	}
	if err := c.UpdateWeight(context.Background(), "a", 3); err != nil {
		t.Fatal(err)
	}
	completed, err := c.ReportProgress(context.Background(), "b", []float64{1, 0})
	if err != nil || !completed {
		t.Fatalf("progress = %v, %v, want completed", completed, err)
	}
	if _, err := c.Shares(context.Background(), "b"); err == nil {
		t.Fatal("Shares(b) should 404 after completion")
	}
	// Reads are served from the engine's published snapshot.
	if snap := eng.Current(); len(snap.Shares) != 1 {
		t.Fatalf("engine snapshot has %d jobs, want 1", len(snap.Shares))
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 1 || st.Completed != 1 || st.Solves == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LastSolveSeconds <= 0 || st.TotalSolveSeconds < st.LastSolveSeconds {
		t.Fatalf("stats missing solve durations: %+v", st)
	}
}

// TestMetricsEndpoint verifies GET /v1/metrics carries per-endpoint HTTP
// telemetry, engine instrumentation, and solver counters that agree with
// /v1/stats.
func TestMetricsEndpoint(t *testing.T) {
	c, _ := newEngineTestServer(t)
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocation(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Shares(context.Background(), "missing"); err == nil {
		t.Fatal("expected 404")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["http.requests.POST /v1/jobs"] != 1 {
		t.Fatalf("job request counter = %v", m.Counters)
	}
	if m.Counters["http.errors.GET /v1/jobs/{id}/shares"] != 1 {
		t.Fatalf("error counter missing: %v", m.Counters)
	}
	h, ok := m.Histograms["http.latency.GET /v1/allocation"]
	if !ok || h.Count != 1 || h.P50 <= 0 {
		t.Fatalf("allocation latency histogram = %+v", h)
	}
	if m.Histograms["engine.solve_latency"].Count == 0 {
		t.Fatalf("solve latency histogram empty: %v", m.Histograms)
	}
	if m.Counters["engine.mutations_total"] != 1 {
		t.Fatalf("engine mutation counter = %v", m.Counters)
	}
	// Solver numbers must agree between /v1/stats and /v1/metrics.
	if got := m.Gauges["scheduler.solves"]; got != float64(st.Solves) {
		t.Fatalf("metrics solves = %g, stats = %d", got, st.Solves)
	}
	if got := m.Gauges["scheduler.jobs"]; got != 1 {
		t.Fatalf("metrics jobs gauge = %g, want 1", got)
	}
	// Decomposition telemetry: one job over two sites is one component,
	// reported by both the scheduler mirror and the engine gauges.
	if got := m.Gauges["scheduler.last_components"]; got != 1 {
		t.Fatalf("metrics last_components gauge = %g, want 1", got)
	}
	if got := m.Gauges["scheduler.largest_component"]; got != 1 {
		t.Fatalf("metrics largest_component gauge = %g, want 1", got)
	}
	if got := m.Gauges["engine.solve_components"]; got != 1 {
		t.Fatalf("engine solve_components gauge = %g, want 1", got)
	}
	if got := m.Gauges["scheduler.last_speedup"]; got != float64(st.LastSpeedup) || got <= 0 {
		t.Fatalf("metrics last_speedup gauge = %g, stats %g", got, st.LastSpeedup)
	}
	// Incremental-solve telemetry: the single add was a cache miss that
	// re-solved its one component, mirrored by stats and metrics alike.
	if st.LastResolved != 1 || st.CacheMisses == 0 {
		t.Fatalf("stats incremental fields = %+v, want last_resolved 1 and cache misses recorded", st)
	}
	if got := m.Gauges["scheduler.last_resolved"]; got != float64(st.LastResolved) {
		t.Fatalf("metrics last_resolved gauge = %g, stats = %d", got, st.LastResolved)
	}
	if got := m.Gauges["scheduler.last_reused"]; got != float64(st.LastReused) {
		t.Fatalf("metrics last_reused gauge = %g, stats = %d", got, st.LastReused)
	}
	if got := m.Gauges["scheduler.cache_misses"]; got != float64(st.CacheMisses) {
		t.Fatalf("metrics cache_misses gauge = %g, stats = %d", got, st.CacheMisses)
	}
	if _, ok := m.Gauges["scheduler.cache_hits"]; !ok {
		t.Fatalf("metrics missing scheduler.cache_hits gauge: %v", m.Gauges)
	}
}

// TestMetricsOnDirectServer: the non-engine server also serves /v1/metrics
// with HTTP middleware telemetry.
func TestMetricsOnDirectServer(t *testing.T) {
	c, _ := newTestServer(t)
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["http.requests.GET /v1/healthz"] != 1 {
		t.Fatalf("healthz counter = %v", m.Counters)
	}
}
