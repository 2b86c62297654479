package api

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/scheduler"
)

func newTestServer(t *testing.T) (*Client, *scheduler.Scheduler) {
	t.Helper()
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{1, 1},
		Policy:       policy.AMF,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sc, []float64{1, 1}, policy.AMF)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), sc
}

func TestHealthzAndConfig(t *testing.T) {
	c, _ := newTestServer(t)
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg, err := c.Config(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SiteCapacity) != 2 || cfg.SiteCapacity[0] != 1 {
		t.Fatalf("config %+v", cfg)
	}
	if cfg.Policy != "amf" {
		t.Fatalf("policy %q", cfg.Policy)
	}
}

func TestJobLifecycle(t *testing.T) {
	c, _ := newTestServer(t)
	if err := c.AddJob(context.Background(), AddJobRequest{
		ID: "flexible", Demand: []float64{1, 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(context.Background(), AddJobRequest{
		ID: "pinned", Demand: []float64{1, 0},
	}); err != nil {
		t.Fatal(err)
	}
	sh, err := c.Shares(context.Background(), "pinned")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sh.Aggregate-1) > 1e-6 {
		t.Fatalf("pinned aggregate %g, want 1", sh.Aggregate)
	}
	alloc, err := c.Allocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Jobs) != 2 {
		t.Fatalf("allocation has %d jobs", len(alloc.Jobs))
	}
	if math.Abs(alloc.Jobs["flexible"].Shares[1]-1) > 1e-6 {
		t.Fatalf("flexible shares %v", alloc.Jobs["flexible"].Shares)
	}

	// Progress to completion.
	done, err := c.ReportProgress(context.Background(), "pinned", []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("pinned should have completed")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.Jobs != 1 {
		t.Fatalf("stats %+v", st)
	}

	if err := c.RemoveJob(context.Background(), "flexible"); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Stats(context.Background())
	if st.Jobs != 0 {
		t.Fatalf("jobs %d after removal", st.Jobs)
	}
}

func TestErrorMapping(t *testing.T) {
	c, _ := newTestServer(t)
	// Unknown job -> 404.
	_, err := c.Shares(context.Background(), "ghost")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job error %v", err)
	}
	if err := c.RemoveJob(context.Background(), "ghost"); err == nil {
		t.Fatal("removing ghost succeeded")
	}
	// Duplicate -> 409.
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	err = c.AddJob(context.Background(), AddJobRequest{ID: "a", Demand: []float64{1, 1}})
	apiErr, ok = err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate error %v", err)
	}
	// Validation -> 400.
	err = c.AddJob(context.Background(), AddJobRequest{ID: "b", Demand: []float64{1}})
	apiErr, ok = err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation error %v", err)
	}
	// Missing id -> 400.
	err = c.AddJob(context.Background(), AddJobRequest{Demand: []float64{1, 1}})
	apiErr, ok = err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing id error %v", err)
	}
}

func TestMalformedJSON(t *testing.T) {
	_, sc := newTestServer(t)
	srv := NewServer(sc, []float64{1, 1}, policy.AMF)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader("{nonsense"))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON -> %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("no error body: %s", rec.Body.String())
	}
}

func TestMethodRouting(t *testing.T) {
	_, sc := newTestServer(t)
	srv := NewServer(sc, []float64{1, 1}, policy.AMF)
	// GET on POST-only endpoint.
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		t.Fatalf("GET /v1/jobs -> %d, want an error status", rec.Code)
	}
	// Unknown path.
	req = httptest.NewRequest(http.MethodGet, "/v1/nope", nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path -> %d", rec.Code)
	}
}

func TestWeightedJobOverAPI(t *testing.T) {
	c, _ := newTestServer(t)
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "light", Weight: 1, Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "heavy", Weight: 3, Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	light, err := c.Shares(context.Background(), "light")
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := c.Shares(context.Background(), "heavy")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(heavy.Aggregate-3*light.Aggregate) > 1e-6 {
		t.Fatalf("weights not respected: light %g heavy %g", light.Aggregate, heavy.Aggregate)
	}
}

func TestProgressWithExplicitWork(t *testing.T) {
	c, _ := newTestServer(t)
	if err := c.AddJob(context.Background(), AddJobRequest{
		ID: "w", Demand: []float64{1, 1}, Work: []float64{5, 5},
	}); err != nil {
		t.Fatal(err)
	}
	done, err := c.ReportProgress(context.Background(), "w", []float64{5, 4})
	if err != nil || done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	done, err = c.ReportProgress(context.Background(), "w", []float64{0, 1})
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
}

func TestSnapshotOverAPI(t *testing.T) {
	c, _ := newTestServer(t)
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "a", Demand: []float64{1, 1}, Work: []float64{3, 3}}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != "a" {
		t.Fatalf("snapshot %+v", snap)
	}
	// Restore into a second server.
	c2, _ := newTestServer(t)
	if err := c2.RestoreSnapshot(context.Background(), snap); err != nil {
		t.Fatal(err)
	}
	sh, err := c2.Shares(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Aggregate <= 0 {
		t.Fatalf("restored job has no allocation: %+v", sh)
	}
	// Bad snapshot -> 400.
	err = c2.RestoreSnapshot(context.Background(), scheduler.Snapshot{Jobs: []scheduler.Job{
		{ID: "x", Demand: []float64{1}, Remaining: []float64{1}},
	}})
	if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad snapshot error %v", err)
	}
}

func TestQueuesOverAPI(t *testing.T) {
	c, _ := newTestServer(t)
	if err := c.AddQueue(context.Background(), "prod", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddQueue(context.Background(), "", 1); err == nil {
		t.Fatal("empty queue name accepted")
	}
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "p", Queue: "prod", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(context.Background(), AddJobRequest{ID: "d", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	// prod (weight 2) vs default (weight 1) on capacity 2: 4/3 vs 2/3.
	p, err := c.Shares(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Shares(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Aggregate-2*d.Aggregate) > 1e-6 {
		t.Fatalf("queue weights over API: %g vs %g", p.Aggregate, d.Aggregate)
	}
	// Unknown queue -> 400.
	err = c.AddJob(context.Background(), AddJobRequest{ID: "x", Queue: "ghost", Demand: []float64{1, 1}})
	if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown queue error %v", err)
	}
}

func TestUpdateWeightOverAPI(t *testing.T) {
	c, _ := newTestServer(t)
	_ = c.AddJob(context.Background(), AddJobRequest{ID: "a", Demand: []float64{1, 1}})
	_ = c.AddJob(context.Background(), AddJobRequest{ID: "b", Demand: []float64{1, 1}})
	if err := c.UpdateWeight(context.Background(), "a", 3); err != nil {
		t.Fatal(err)
	}
	a, _ := c.Shares(context.Background(), "a")
	b, _ := c.Shares(context.Background(), "b")
	if math.Abs(a.Aggregate-3*b.Aggregate) > 1e-6 {
		t.Fatalf("weight update not applied: %g vs %g", a.Aggregate, b.Aggregate)
	}
	if err := c.UpdateWeight(context.Background(), "ghost", 2); err == nil {
		t.Fatal("unknown job accepted")
	}
}
