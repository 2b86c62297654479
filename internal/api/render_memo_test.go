package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// newMemoTestEngine builds an unbatched engine over 8 sites holding jobs
// j0..j(n-1), each on two adjacent sites of a four-site block, so the
// instance splits into two components and a mutation re-solves only its
// own.
func newMemoTestEngine(t *testing.T, n int) (*serve.Engine, *Server) {
	t.Helper()
	caps := []float64{4, 4, 4, 4, 4, 4, 4, 4}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	for i := 0; i < n; i++ {
		if _, err := eng.Apply(context.Background(), memoTestAdd(i)); err != nil {
			t.Fatal(err)
		}
	}
	return eng, NewEngineServer(eng, nil, caps, policy.AMF)
}

func memoTestAdd(i int) wal.Mutation {
	d := make([]float64, 8)
	s := 4*(i%2) + i%3
	d[s], d[s+1] = 1+float64(i%3), 1
	return wal.Mutation{Op: wal.OpAddJob, ID: fmt.Sprintf("j%d", i), Demand: d}
}

// get serves one GET through the handler and returns the recorder.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func (s *Server) memoLen() int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return len(s.memo.frags)
}

// TestRenderMemoBoundAndRace runs scans, point reads and writes
// concurrently (run under -race), checks every response decodes, and
// then that once all but k jobs are removed a single scan prunes the
// memo to at most k fragments.
func TestRenderMemoBoundAndRace(t *testing.T) {
	const n, k = 24, 3
	eng, srv := newMemoTestEngine(t, n)
	h := srv.Handler()
	ctx := context.Background()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if r%2 == 0 {
					rec := get(h, "/v1/allocation")
					var doc AllocationResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusOK || err != nil {
						t.Errorf("scan: %d %v", rec.Code, err)
						return
					}
					continue
				}
				id := fmt.Sprintf("j%d", (i*7+r)%n)
				rec := get(h, "/v1/jobs/"+id+"/shares")
				if rec.Code == http.StatusNotFound {
					continue // removed by the writer
				}
				var doc SharesResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusOK || err != nil || doc.ID != id {
					t.Errorf("shares %s: %d %v %+v", id, rec.Code, err, doc)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("j%d", i%n)
		m := wal.Mutation{Op: wal.OpWeight, ID: id, Weight: 1 + float64(i%4)}
		if i%5 == 4 {
			m = wal.Mutation{Op: wal.OpRemoveJob, ID: id}
		}
		if _, err := eng.Apply(ctx, m); err != nil {
			t.Fatalf("mutation %d (%+v): %v", i, m, err)
		}
		if m.Op == wal.OpRemoveJob {
			if _, err := eng.Apply(ctx, memoTestAdd(i%n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	for i := k; i < n; i++ {
		if _, err := eng.Apply(ctx, wal.Mutation{Op: wal.OpRemoveJob, ID: fmt.Sprintf("j%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.memoLen(); got <= k {
		t.Fatalf("memo holds %d fragments before the scan; the test needs stale ones", got)
	}
	if rec := get(h, "/v1/allocation"); rec.Code != http.StatusOK {
		t.Fatalf("scan: %d", rec.Code)
	}
	if got := srv.memoLen(); got > k {
		t.Fatalf("memo holds %d fragments after a scan over %d jobs", got, k)
	}
}

// TestRenderMemoPointReadsBounded: point reads alone, with no scan to
// prune, keep the memo within twice the live job count plus slack while
// jobs churn through the server.
func TestRenderMemoPointReadsBounded(t *testing.T) {
	const live = 8
	eng, srv := newMemoTestEngine(t, live)
	h := srv.Handler()
	ctx := context.Background()
	for i := live; i < live+400; i++ {
		if _, err := eng.Apply(ctx, wal.Mutation{Op: wal.OpRemoveJob, ID: fmt.Sprintf("j%d", i-live)}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Apply(ctx, memoTestAdd(i)); err != nil {
			t.Fatal(err)
		}
		if rec := get(h, fmt.Sprintf("/v1/jobs/j%d/shares", i)); rec.Code != http.StatusOK {
			t.Fatalf("shares j%d: %d", i, rec.Code)
		}
		if got := srv.memoLen(); got > 2*live+65 {
			t.Fatalf("memo holds %d fragments over %d live jobs", got, live)
		}
	}
}

// TestScanHeaderCoherentUnderPolicySwitch switches the policy while scans
// run (run under -race) and checks that every scan's version, policy and
// shares are exactly what the engine published at that version: the
// header never labels shares with a later snapshot's policy.
func TestScanHeaderCoherentUnderPolicySwitch(t *testing.T) {
	eng, srv := newMemoTestEngine(t, 8)
	h := srv.Handler()
	ctx := context.Background()

	var mu sync.Mutex
	published := map[uint64]*serve.AllocSnapshot{}
	record := func() {
		snap := eng.Current()
		mu.Lock()
		published[snap.Version] = snap
		mu.Unlock()
	}
	// This goroutine is the only writer, so the snapshot current right
	// after each Apply is the one that commit published.
	record()
	var stop atomic.Bool
	var scans []AllocationResponse
	var wg sync.WaitGroup
	var smu sync.Mutex
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := get(h, "/v1/allocation")
				var doc AllocationResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Errorf("scan: %d %v", rec.Code, err)
					return
				}
				smu.Lock()
				scans = append(scans, doc)
				smu.Unlock()
			}
		}()
	}
	names := []string{policy.EnhancedAMF.Name(), policy.AMF.Name()}
	for i := 0; i < 600; i++ {
		if _, err := eng.Apply(ctx, wal.Mutation{Op: wal.OpSetPolicy, Policy: names[i%2]}); err != nil {
			t.Fatal(err)
		}
		record()
	}
	stop.Store(true)
	wg.Wait()

	if len(scans) == 0 {
		t.Fatal("no scans completed")
	}
	for _, doc := range scans {
		snap, ok := published[doc.Version]
		if !ok {
			t.Fatalf("scan reports version %d, which the engine never published", doc.Version)
		}
		if doc.Policy != snap.Policy {
			t.Fatalf("scan at version %d labelled %q; the engine published it under %q", doc.Version, doc.Policy, snap.Policy)
		}
		if len(doc.Jobs) != len(snap.Shares) {
			t.Fatalf("scan at version %d has %d jobs, snapshot %d", doc.Version, len(doc.Jobs), len(snap.Shares))
		}
		for id, row := range snap.Shares {
			got := doc.Jobs[id].Shares
			if len(got) != len(row) {
				t.Fatalf("scan at version %d: job %s has %d shares, snapshot %d", doc.Version, id, len(got), len(row))
			}
			for s := range row {
				if got[s] != row[s] {
					t.Fatalf("scan at version %d: job %s site %d = %v, snapshot %v", doc.Version, id, s, got[s], row[s])
				}
			}
		}
	}
}
