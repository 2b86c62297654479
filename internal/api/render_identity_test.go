package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// identityCaps is the site capacity vector of every identity-test
// deployment.
var identityCaps = []float64{4, 4, 8, 4, 6, 2}

// identityIDs includes IDs encoding/json escapes (<, &, ", \, U+2028)
// and non-ASCII ones.
var identityIDs = []string{
	"j0", "j1", "j2", "j3", "j4", "j5", "j6", "j7",
	"a<b", "x&y", `q"uote`, `back\slash`, "line\u2028sep", "jöb-ü", "作业", "🙂",
}

// identityStream draws a seeded random mutation stream over identityIDs:
// adds on one to three sites, weight updates, progress reports that
// eventually complete jobs, removals and policy switches. Many of its
// mutations fail (unknown or duplicate IDs, footprints a router cannot
// place); every one is still followed by a read comparison.
func identityStream(seed uint64, n int) []wal.Mutation {
	rng := rand.New(rand.NewPCG(seed, 15))
	policies := []string{policy.AMF.Name(), policy.EnhancedAMF.Name()}
	ms := make([]wal.Mutation, 0, n)
	for len(ms) < n {
		id := identityIDs[rng.IntN(len(identityIDs))]
		switch p := rng.IntN(20); {
		case p < 8:
			d := make([]float64, len(identityCaps))
			for k := 1 + rng.IntN(3); k > 0; k-- {
				d[rng.IntN(len(d))] = float64(1 + rng.IntN(4))
			}
			work := make([]float64, len(d))
			for s := range work {
				work[s] = 4 * d[s]
			}
			ms = append(ms, wal.Mutation{Op: wal.OpAddJob, ID: id, Weight: float64(1 + rng.IntN(3)), Demand: d, Work: work})
		case p < 14:
			ms = append(ms, wal.Mutation{Op: wal.OpWeight, ID: id, Weight: 0.5 + 2.5*rng.Float64()})
		case p < 17:
			done := make([]float64, len(identityCaps))
			for s := range done {
				done[s] = float64(rng.IntN(3))
			}
			ms = append(ms, wal.Mutation{Op: wal.OpProgress, ID: id, Done: done})
		case p < 19:
			ms = append(ms, wal.Mutation{Op: wal.OpRemoveJob, ID: id})
		default:
			ms = append(ms, wal.Mutation{Op: wal.OpSetPolicy, Policy: policies[rng.IntN(2)]})
		}
	}
	return ms
}

// referenceRead is one read as the allocation and shares handlers used
// to serve it: the backend's fields read one by one and the response
// value encoded whole by json.Encoder.
type referenceRead struct {
	alloc         map[string][]float64
	version       uint64
	phaseLag, hot int
	policy        string
}

func backendReference(t *testing.T, be api.Backend) referenceRead {
	t.Helper()
	alloc, err := be.Allocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceRead{alloc: alloc, policy: be.PolicyName()}
	if v, ok := be.(api.Versioned); ok {
		ref.version = v.SnapshotVersion()
	}
	if pr, ok := be.(api.PhaseReporter); ok {
		ref.phaseLag, ref.hot = pr.PhaseInfo()
	}
	return ref
}

func encodeReference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sharesReference(id string, row []float64) api.SharesResponse {
	var agg float64
	for _, v := range row {
		agg += v
	}
	return api.SharesResponse{ID: id, Shares: row, Aggregate: agg}
}

// checkIdentical compares the handler's allocation scan and every job's
// point read byte for byte against the reference encodings. It runs the
// scan twice, so the second is served from the memo.
func checkIdentical(t *testing.T, tag string, h http.Handler, ref referenceRead) {
	t.Helper()
	doc := api.AllocationResponse{
		Jobs:    make(map[string]api.SharesResponse, len(ref.alloc)),
		Version: ref.version, Policy: ref.policy,
		PhaseLag: ref.phaseLag, HotComponents: ref.hot,
	}
	for id, row := range ref.alloc {
		doc.Jobs[id] = sharesReference(id, row)
	}
	want := encodeReference(t, doc)
	for pass := 0; pass < 2; pass++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/allocation", nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: scan pass %d (status %d)\n got %s\nwant %s", tag, pass, rec.Code, rec.Body.Bytes(), want)
		}
	}
	for id, row := range ref.alloc {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/shares", nil))
		if want := encodeReference(t, sharesReference(id, row)); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: shares %q (status %d)\n got %s\nwant %s", tag, id, rec.Code, rec.Body.Bytes(), want)
		}
	}
}

func newIdentityEngine(t *testing.T, log *wal.Log, phase scheduler.PhaseConfig) *serve.Engine {
	t.Helper()
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: identityCaps, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetPhaseConfig(phase); err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{Log: log, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// TestRenderMemoByteIdentity drives a seeded random mutation stream into
// each backend kind and, after every mutation, checks that the memoized
// read paths serve exactly the bytes json.Encoder produced for the
// response built field by field. Rows a backend published and the memo
// still holds would render stale here if anything wrote them in place.
func TestRenderMemoByteIdentity(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 2, 3} {
		stream := identityStream(seed, 150)

		t.Run(fmt.Sprintf("engine/seed%d", seed), func(t *testing.T) {
			// Phase reconciliation armed with long phases: a component
			// dirtied by most recent solves turns hot, and its weight and
			// progress updates are buffered, so scans carry a phase lag.
			eng := newIdentityEngine(t, nil, scheduler.PhaseConfig{
				HotThreshold: 0.3, MaxBatches: 100, MaxIntervalMS: 100_000, Window: 4,
			})
			h := api.NewEngineServer(eng, nil, identityCaps, policy.AMF).Handler()
			sawLag := false
			for i, m := range stream {
				_, _ = eng.Apply(ctx, m) // failed mutations are part of the stream
				ref := backendReference(t, eng)
				sawLag = sawLag || ref.phaseLag > 0
				checkIdentical(t, fmt.Sprintf("mutation %d (%s)", i, m.Op), h, ref)
			}
			if !sawLag {
				t.Fatal("no scan carried a nonzero phase_lag")
			}
		})

		t.Run(fmt.Sprintf("router/seed%d", seed), func(t *testing.T) {
			shards := make([]cluster.Shard, 2)
			for i := range shards {
				shards[i] = cluster.EngineShard{Eng: newIdentityEngine(t, nil, scheduler.PhaseConfig{})}
			}
			router, err := cluster.NewRouter(shards, policy.AMF)
			if err != nil {
				t.Fatal(err)
			}
			h := api.NewBackendServer(router, nil, identityCaps, policy.AMF).Handler()
			for i, m := range stream {
				_, _ = router.Apply(ctx, m)
				checkIdentical(t, fmt.Sprintf("mutation %d (%s)", i, m.Op), h, backendReference(t, router))
			}
		})

		t.Run(fmt.Sprintf("replica/seed%d", seed), func(t *testing.T) {
			log, _, err := wal.Open(t.TempDir(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			primary := newIdentityEngine(t, log, scheduler.PhaseConfig{})
			ship := httptest.NewServer(wal.NewShipHandler(log))
			t.Cleanup(ship.Close)
			rep, err := cluster.NewReplica(cluster.ReplicaConfig{
				Source:       &wal.ShipClient{Base: ship.URL, HTTP: ship.Client()},
				SiteCapacity: identityCaps,
				Policy:       policy.AMF,
				Interval:     time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = rep.Close() })
			h := api.NewBackendServer(rep, nil, identityCaps, policy.AMF).Handler()
			for i, m := range stream {
				_, _ = primary.Apply(ctx, m)
				waitReplica(t, rep, log.Durable())
				checkIdentical(t, fmt.Sprintf("mutation %d (%s)", i, m.Op), h, backendReference(t, rep))
			}
		})

		t.Run(fmt.Sprintf("scheduler/seed%d", seed), func(t *testing.T) {
			sc, err := scheduler.New(scheduler.Config{SiteCapacity: identityCaps, Policy: policy.AMF})
			if err != nil {
				t.Fatal(err)
			}
			h := api.NewServer(sc, identityCaps, policy.AMF).Handler()
			for i, m := range stream {
				_, _ = m.Apply(sc)
				alloc, err := sc.Allocation()
				if err != nil {
					t.Fatal(err)
				}
				// Unversioned: the version field is omitted.
				checkIdentical(t, fmt.Sprintf("mutation %d (%s)", i, m.Op), h,
					referenceRead{alloc: alloc, policy: sc.PolicyName()})
			}
		})
	}
}

// waitReplica polls until the replica's view reflects the WAL up to head.
func waitReplica(t *testing.T, r *cluster.Replica, head wal.Cursor) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v := r.View(); v != nil && !v.Cursor.Before(head) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("replica never reached %v (last error: %s)", head, r.LastError())
}
