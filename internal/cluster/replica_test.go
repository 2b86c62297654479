package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

// engineTarget adapts serve.Engine to workload.ChurnTarget.
type engineTarget struct{ e *serve.Engine }

func (t engineTarget) AddJob(id string, w float64, d, wk []float64) error {
	return t.e.AddJob(context.Background(), id, w, d, wk)
}
func (t engineTarget) RemoveJob(id string) error {
	return t.e.RemoveJob(context.Background(), id)
}
func (t engineTarget) UpdateWeight(id string, w float64) error {
	return t.e.UpdateWeight(context.Background(), id, w)
}
func (t engineTarget) ReportProgress(id string, done []float64) (bool, error) {
	return t.e.ReportProgress(context.Background(), id, done)
}

// waitCaughtUpTo polls until the replica's view reaches at least the
// given WAL cursor.
func waitCaughtUpTo(t *testing.T, r *cluster.Replica, head wal.Cursor) *cluster.ReplicaView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v := r.View(); v != nil && !v.Cursor.Before(head) {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica never reached %v (last error: %s)", head, r.LastError())
	return nil
}

// TestReplicaFollowsPrimary: a replica tailing the primary's WAL over
// HTTP converges to the primary's exact allocation after every churn
// stream, for both policies — including the primary's external-weight
// broadcasts, which ride the log.
func TestReplicaFollowsPrimary(t *testing.T) {
	for _, pol := range []policy.Policy{policy.AMF, policy.EnhancedAMF} {
		for trial := 0; trial < 4; trial++ {
			pol, trial := pol, trial
			t.Run(fmt.Sprintf("%s/seed%d", pol.Name(), trial), func(t *testing.T) {
				t.Parallel()
				churn := workload.GenerateChurn(workload.ChurnConfig{
					Sparse: workload.SparseConfig{
						Components:        5,
						JobsPerComponent:  3,
						SitesPerComponent: 3,
						Seed:              uint64(400 + trial),
					},
					Mutations: 40,
					Seed:      uint64(77 + trial),
				})
				caps := churn.Inst.SiteCapacity

				dir := filepath.Join(t.TempDir(), "wal")
				log, _, err := wal.Open(dir, wal.Options{SegmentBytes: 2048})
				if err != nil {
					t.Fatal(err)
				}
				sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				eng, err := serve.New(sc, serve.Config{Log: log, MaxBatch: 4})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = eng.Close() })

				srv := httptest.NewServer(wal.NewShipHandler(log))
				t.Cleanup(srv.Close)
				rep, err := cluster.NewReplica(cluster.ReplicaConfig{
					Source:       &wal.ShipClient{Base: srv.URL, HTTP: srv.Client()},
					SiteCapacity: caps,
					Policy:       pol,
					Interval:     2 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = rep.Close() })

				target := engineTarget{eng}
				if err := churn.Populate(target); err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for i, op := range churn.Ops {
					if err := op.Apply(target); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if i%13 == 4 {
						if err := eng.SetExternalWeight(ctx, float64(1+i%3)); err != nil {
							t.Fatal(err)
						}
					}
				}

				view := waitCaughtUpTo(t, rep, log.Durable())
				want := eng.Current()
				diffAllocs(t, "replica vs primary", view.Shares, want.Shares, 1e-9*churn.Inst.Scale())
				if err := rep.ReadyErr(); err != nil {
					t.Fatalf("caught-up replica unready: %v", err)
				}
				reg := rep.Metrics().Snapshot()
				if reg.Gauges["replica.caught_up"] != 1 {
					t.Fatal("caught_up gauge not 1")
				}
				if reg.Gauges["replica.lag_bytes"] != 0 || reg.Gauges["replica.lag_segments"] != 0 {
					t.Fatalf("lag gauges nonzero at head: %+v", reg.Gauges)
				}
			})
		}
	}
}

// TestReplicaResetFromSnapshot: a replica joining after the primary
// compacted its history is bootstrapped from the snapshot (ShipResponse
// reset) and still converges.
func TestReplicaResetFromSnapshot(t *testing.T) {
	caps := []float64{4, 4, 4}
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	// Hand-build primary history: two jobs, then a compaction folding
	// them into a snapshot, then one more job in the record tail.
	primary, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.EnhancedAMF})
	if err != nil {
		t.Fatal(err)
	}
	appendBatch := func(ms ...wal.Mutation) {
		t.Helper()
		for _, m := range ms {
			if _, err := m.Apply(primary); err != nil {
				t.Fatal(err)
			}
		}
		payload, err := wal.EncodeBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendBatch(wal.Mutation{Op: wal.OpAddJob, ID: "a", Weight: 2, Demand: []float64{1, 1, 0}})
	appendBatch(wal.Mutation{Op: wal.OpExternalWeight, Weight: 3})
	state, err := wal.EncodeState(primary.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Compact(state); err != nil {
		t.Fatal(err)
	}
	appendBatch(wal.Mutation{Op: wal.OpAddJob, ID: "b", Weight: 1, Demand: []float64{0, 1, 1}})

	srv := httptest.NewServer(wal.NewShipHandler(log))
	defer srv.Close()
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Source:       &wal.ShipClient{Base: srv.URL, HTTP: srv.Client()},
		SiteCapacity: caps,
		Policy:       policy.EnhancedAMF,
		Interval:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	view := waitCaughtUpTo(t, rep, log.Durable())
	want, err := primary.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	diffAllocs(t, "replica vs primary after reset", view.Shares, want, 1e-12)
	if rep.Metrics().Snapshot().Counters["replica.resets"] != 1 {
		t.Fatal("replica did not record the snapshot reset")
	}
	if got := rep.Snapshot().ExternalWeight; got != 3 {
		t.Fatalf("replica external weight = %g, want 3 (from snapshot)", got)
	}
}

// TestReplicaAPISurface: a replica served through api.NewBackendServer
// is a read endpoint — readyz flips once caught up, mutations are
// rejected with stable codes, allocation carries the replica version.
func TestReplicaAPISurface(t *testing.T) {
	caps := []float64{2, 2}
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	if err := eng.AddJob(ctx, "a", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}

	// Unreachable source: the replica must stay unready, and its API
	// must answer 503 on readyz — never hang.
	bad, err := cluster.NewReplica(cluster.ReplicaConfig{
		Source:       &wal.ShipClient{Base: "http://127.0.0.1:1"},
		SiteCapacity: caps,
		Policy:       policy.AMF,
		Interval:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.ReadyErr(); !errors.Is(err, cluster.ErrSyncing) {
		t.Fatalf("unreachable replica ReadyErr = %v, want ErrSyncing", err)
	}

	ship := httptest.NewServer(wal.NewShipHandler(log))
	defer ship.Close()
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Source:       &wal.ShipClient{Base: ship.URL, HTTP: ship.Client()},
		SiteCapacity: caps,
		Policy:       policy.AMF,
		Interval:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitCaughtUpTo(t, rep, log.Durable())

	apiSrv := httptest.NewServer(api.NewBackendServer(rep, nil, caps, policy.AMF).Handler())
	defer apiSrv.Close()
	cl := api.NewClient(apiSrv.URL, apiSrv.Client())

	if err := cl.Readyz(ctx); err != nil {
		t.Fatalf("caught-up replica readyz = %v", err)
	}
	alloc, err := cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Jobs) != 1 || alloc.Version == 0 {
		t.Fatalf("replica allocation = %+v", alloc)
	}
	if err := cl.AddJob(ctx, api.AddJobRequest{ID: "x", Demand: []float64{1, 0}}); !errors.Is(err, api.ErrInvalidArgument) {
		t.Fatalf("mutation on replica = %v, want invalid_argument", err)
	}
	if err := cl.RemoveJob(ctx, "a"); !errors.Is(err, api.ErrInvalidArgument) {
		t.Fatalf("remove on replica = %v, want invalid_argument", err)
	}
}

// expectInvalid sends one raw request and requires the 400
// invalid_argument answer.
func expectInvalid(t *testing.T, base, method, path, body string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Code string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("%s %s: decoding error body: %v", method, path, err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalidArgument {
		t.Fatalf("%s %s = %d %q, want 400 %q", method, path, resp.StatusCode, e.Code, api.CodeInvalidArgument)
	}
}

// TestReplicaRejectsEveryMutation covers the read-only surfaces op kind by
// op kind: Replica.Apply refuses every WAL op, every mutating route of a
// replica's API answers 400 invalid_argument, and so do the router's
// refusals of queues, restores and external weights.
func TestReplicaRejectsEveryMutation(t *testing.T) {
	caps := []float64{2, 2}
	ctx := context.Background()
	log, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.AddJob(ctx, "a", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	ship := httptest.NewServer(wal.NewShipHandler(log))
	defer ship.Close()
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Source:       &wal.ShipClient{Base: ship.URL, HTTP: ship.Client()},
		SiteCapacity: caps,
		Policy:       policy.AMF,
		Interval:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitCaughtUpTo(t, rep, log.Durable())

	t.Run("apply", func(t *testing.T) {
		for _, op := range []string{
			wal.OpAddJob, wal.OpAddJobs, wal.OpAddQueue, wal.OpRemoveJob, wal.OpProgress,
			wal.OpWeight, wal.OpRestore, wal.OpExternalWeight, wal.OpSetPolicy, wal.OpSetConfig,
		} {
			if _, err := rep.Apply(ctx, wal.Mutation{Op: op, ID: "a"}); !errors.Is(err, cluster.ErrReadOnly) {
				t.Errorf("Replica.Apply(%s) = %v, want ErrReadOnly", op, err)
			}
		}
	})

	mutating := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs", `{"id":"x","demand":[1,0]}`},
		{http.MethodPost, "/v1/jobs:batch", `{"jobs":[{"id":"x","demand":[1,0]}]}`},
		{http.MethodPost, "/v1/queues", `{"name":"q","weight":2}`},
		{http.MethodDelete, "/v1/jobs/a", ``},
		{http.MethodPost, "/v1/jobs/a/progress", `{"done":[0.1,0]}`},
		{http.MethodPut, "/v1/jobs/a/weight", `{"weight":2}`},
		{http.MethodPut, "/v1/snapshot", `{}`},
		{http.MethodPatch, "/v1/config", `{"policy":"amf"}`},
		{http.MethodPut, "/v1/policy", `{"policy":"amf"}`},
		{http.MethodPut, "/v1/solver/approx", `{"epsilon":0.01,"threshold":10}`},
		{http.MethodPut, "/v1/cluster/external-weight", `{"weight":1}`},
	}
	t.Run("replica-http", func(t *testing.T) {
		srv := httptest.NewServer(api.NewBackendServer(rep, nil, caps, policy.AMF).Handler())
		defer srv.Close()
		for _, m := range mutating {
			expectInvalid(t, srv.URL, m.method, m.path, m.body)
		}
		// Reads still serve the replayed state, config included.
		cl := api.NewClient(srv.URL, srv.Client())
		doc, err := cl.Config(ctx)
		if err != nil || doc.Policy != "amf" || doc.Solver == nil || doc.Phase == nil {
			t.Fatalf("replica GET /v1/config = %+v, %v", doc, err)
		}
	})

	t.Run("router-http", func(t *testing.T) {
		shards, _ := newEngineShards(t, 2, caps, policy.AMF)
		r, err := cluster.NewRouter(shards, policy.AMF)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(cluster.NewHandler(r, nil, caps, policy.AMF))
		defer srv.Close()
		for _, m := range []struct{ method, path, body string }{
			{http.MethodPost, "/v1/queues", `{"name":"q","weight":2}`},
			{http.MethodPost, "/v1/jobs", `{"id":"x","queue":"q","demand":[1,0]}`},
			{http.MethodPost, "/v1/jobs:batch", `{"jobs":[{"id":"x","queue":"q","demand":[1,0]}]}`},
			{http.MethodPut, "/v1/snapshot", `{}`},
			{http.MethodPut, "/v1/cluster/external-weight", `{"weight":1}`},
		} {
			expectInvalid(t, srv.URL, m.method, m.path, m.body)
		}
	})
}
