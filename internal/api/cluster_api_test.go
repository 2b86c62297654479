package api

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

func TestReadyzEngineLifecycle(t *testing.T) {
	dir := t.TempDir()
	fail := false
	log, _, err := wal.Open(dir, wal.Options{
		Sync: func(f *os.File) error {
			if fail {
				return errors.New("injected fsync failure")
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{1, 1},
		Policy:       policy.AMF,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Crash() })
	srv := NewEngineServer(eng, nil, []float64{1, 1}, policy.AMF)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("healthy engine not ready: %v", err)
	}
	// A WAL fail-stop flips readiness to 503/unavailable while liveness
	// stays 200: the process still serves reads.
	fail = true
	if err := eng.AddJob(ctx, "a", 1, []float64{1, 0}, nil); !errors.Is(err, serve.ErrWALFailed) {
		t.Fatalf("add after FailNext = %v, want ErrWALFailed", err)
	}
	err = c.Readyz(ctx)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("readyz after fail-stop = %v, want unavailable", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 503 {
		t.Fatalf("readyz status = %v, want 503", err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz after fail-stop = %v, want ok (liveness is separate)", err)
	}
}

// TestReadyzSchedulerBackend: a bare scheduler has no WAL and no replay —
// always ready.
func TestReadyzSchedulerBackend(t *testing.T) {
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{1},
		Policy:       policy.AMF,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(sc, []float64{1}, policy.AMF).Handler())
	t.Cleanup(ts.Close)
	if err := NewClient(ts.URL, ts.Client()).Readyz(context.Background()); err != nil {
		t.Fatalf("bare scheduler not ready: %v", err)
	}
}

func TestExternalWeightEndpoint(t *testing.T) {
	c, eng := newEngineTestServer(t)
	ctx := context.Background()
	if err := c.AddJob(ctx, AddJobRequest{ID: "a", Weight: 1, Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetExternalWeight(ctx, 3); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ExternalWeight != 3 {
		t.Fatalf("snapshot external weight = %g, want 3", snap.ExternalWeight)
	}
	if err := c.SetExternalWeight(ctx, -1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative external weight = %v, want invalid_argument", err)
	}
	_ = eng
}

// TestAllocationVersion: engine-backed allocations carry the snapshot
// version; each commit advances it.
func TestAllocationVersion(t *testing.T) {
	c, _ := newEngineTestServer(t)
	ctx := context.Background()
	if err := c.AddJob(ctx, AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	a1, err := c.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Version == 0 {
		t.Fatal("engine-backed allocation has version 0")
	}
	if err := c.AddJob(ctx, AddJobRequest{ID: "b", Demand: []float64{0, 1}}); err != nil {
		t.Fatal(err)
	}
	a2, err := c.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Version <= a1.Version {
		t.Fatalf("version did not advance: %d then %d", a1.Version, a2.Version)
	}
}
