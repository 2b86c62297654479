package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func streamBytes(t *testing.T, w *workloadSpec, seed uint64) []byte {
	t.Helper()
	src := newSource(w, seed, 4000)
	warm, err := src.take(warmOps)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := src.schedule(w.rate, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(append(warm, ops...))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := streamBytes(t, w, 11), streamBytes(t, w, 11)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 produced two different streams", w.name)
		}
		if bytes.Equal(a, streamBytes(t, w, 12)) {
			t.Errorf("%s: seeds 11 and 12 produced the same stream", w.name)
		}
	}
}

// TestStreamHasNoExpectedErrors applies every generated request, in
// order, to an in-process scheduler: none may fail, so any failure the
// benchmark sees against the server is the server's.
func TestStreamHasNoExpectedErrors(t *testing.T) {
	for _, w := range workloads {
		src := newSource(w, 3, 6000)
		pol, err := policy.ForName(w.policy)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scheduler.New(scheduler.Config{SiteCapacity: src.base.SiteCapacity, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range src.base.JobName {
			if err := sc.AddJob(id, 1, src.base.Demand[j], src.base.Work[j]); err != nil {
				t.Fatal(err)
			}
		}
		warm, err := src.take(warmOps)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := src.schedule(w.rate, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[opKind]int{}
		for i, o := range append(warm, ops...) {
			kinds[o.Kind]++
			switch o.Kind {
			case opRead:
				_, err = sc.Shares(o.Job)
			case opScan:
				_, err = sc.Allocation()
			case opWrite:
				err = o.W.Apply(sc)
			}
			if err != nil {
				t.Fatalf("%s: request %d (%s %s): %v", w.name, i, o.Kind, o.Job, err)
			}
		}
		if kinds[opWrite] == 0 || kinds[opRead] == 0 || (w.scanFrac > 0) != (kinds[opScan] > 0) {
			t.Errorf("%s: mix %v does not match the spec", w.name, kinds)
		}
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	w := *workloads[0]
	w.readFrac, w.scanFrac = 1, 0 // reads only: the write stream cannot run out
	src := newSource(&w, 5, 1)
	const rate, secs = 200.0, 100
	ops, err := src.schedule(rate, secs*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The count is Poisson with mean 20,000 (sd ≈ 141): 3% is > 4 sd.
	if got := float64(len(ops)) / secs; math.Abs(got-rate)/rate > 0.03 {
		t.Fatalf("mean rate %.1f ops/s, want %.0f ± 3%%", got, rate)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Due < ops[i-1].Due {
			t.Fatalf("due times not sorted at %d", i)
		}
	}
	if last := ops[len(ops)-1].Due; last >= secs*time.Second {
		t.Fatalf("request due at %v, after the window", last)
	}
}

func TestPercentileSampleRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 10}
	// Overlapping children count once; the part outside the parent
	// does not count.
	kids := []interval{{1, 3}, {2, 5}, {8, 12}}
	if got := selfTime(parent, kids); got != 4 {
		t.Fatalf("selfTime = %g, want 4", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Fatalf("selfTime without children = %g, want 10", got)
	}
	if got := selfTime(parent, []interval{{-5, 20}}); got != 0 {
		t.Fatalf("selfTime fully covered = %g, want 0", got)
	}
}

func TestTraceJoinAndShardCommitSelfTime(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	child := &span.Trace{ID: "c", Start: t0.Add(3 * time.Millisecond), Total: 0.004, Shard: "0",
		Requests: []span.ID{"pb1"}, Spans: []span.Span{{Name: "queue_wait", Duration: 0.004}}}
	orphan := &span.Trace{ID: "o", Start: t0, Total: 0.002, Shard: "1", Requests: []span.ID{"pb2"}}
	router := &span.Trace{ID: "pb1", Start: t0, Total: 0.010, Children: []*span.Trace{child},
		Spans: []span.Span{
			{Name: "route", Start: 0, Duration: 0.001},
			{Name: "shard_commit", Start: 0.001, Duration: 0.008},
			{Name: "weight_broadcast", Start: 0.009, Duration: 0.001},
		}}
	ts := splitTraces([]*span.Trace{router, orphan})
	if len(ts.routed) != 1 || len(ts.commits) != 2 {
		t.Fatalf("split: %d routed, %d commits; want 1, 2", len(ts.routed), len(ts.commits))
	}
	// shard_commit covers [1ms, 9ms); the child commit covers [3ms, 7ms).
	if got := shardCommitSelfUS(ts.routed); math.Abs(got-4000) > 1e-6 {
		t.Fatalf("shard_commit self time %g µs, want 4000", got)
	}

	w := &workload.ChurnOp{Kind: workload.ChurnWeight, Job: "x"}
	rn := &run{
		ops: []op{{Kind: opWrite, W: w}, {Kind: opWrite, W: w}, {Kind: opWrite, W: w}, {Kind: opRead}},
		res: []result{
			{Sent: 0, Done: 12 * time.Millisecond, Trace: "pb1"}, // router total 10ms
			{Sent: 0, Done: 3 * time.Millisecond, Trace: "pb2"},  // not routed: no join
			{Sent: 0, Done: 1 * time.Millisecond, Trace: "pb9"},  // no trace
			{Sent: 0, Done: 1 * time.Millisecond, Trace: "pb1"},  // a read
		},
	}
	res, n := joinWrites(rn, ts)
	if n != 1 || math.Abs(res-2000) > 1e-6 {
		t.Fatalf("joinWrites = %g µs over %d, want 2000 over 1", res, n)
	}
	// Without a router the commit traces carry the request IDs.
	res, n = joinWrites(rn, splitTraces([]*span.Trace{orphan}))
	if n != 1 || math.Abs(res-1000) > 1e-6 {
		t.Fatalf("joinWrites on commits = %g µs over %d, want 1000 over 1", res, n)
	}

	stages, details := stageUS([]*span.Trace{
		{Spans: []span.Span{{Name: "solve", Duration: 0.003}, {Name: "solve.component", Detail: true}}},
		{Spans: []span.Span{{Name: "apply", Duration: 0.001}}},
	})
	if stages["solve"] != 1500 || stages["apply"] != 500 || details["solve.component"] != 0.5 {
		t.Fatalf("stageUS = %v, %v", stages, details)
	}
}

func TestParseProm(t *testing.T) {
	page := `# TYPE amf_engine_commits_total counter
amf_engine_commits_total{shard="0"} 3
amf_engine_commits_total{shard="1"} 4
amf_http_request_latency_seconds_sum{route="PUT /v1/jobs/{id}/weight"} 0.5
amf_http_request_latency_seconds_count{route="PUT /v1/jobs/{id}/weight"} 100
amf_http_request_latency_seconds_sum{route="POST /v1/jobs"} 0.3
amf_http_request_latency_seconds_count{route="POST /v1/jobs"} 100
`
	p, err := parseProm(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("amf_engine_commits_total"); got != 7 {
		t.Errorf("sum = %g, want 7", got)
	}
	if got := p.sum("amf_engine_commits_total", `shard="1"`); got != 4 {
		t.Errorf("shard sum = %g, want 4", got)
	}
	if got := p.writeHandlerUS(); math.Abs(got-4000) > 1e-9 {
		t.Errorf("writeHandlerUS = %g, want 4000", got)
	}
	base := prom{`amf_engine_commits_total{shard="0"}`: 1}
	if got := p.minus(base).sum("amf_engine_commits_total"); got != 6 {
		t.Errorf("delta sum = %g, want 6", got)
	}
}

func TestMixIsExactPerBlock(t *testing.T) {
	for _, w := range workloads {
		src := newSource(w, 9, 1000)
		ops, err := src.take(10 * blockLen)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < len(ops); b += blockLen {
			n := map[opKind]int{}
			for _, o := range ops[b : b+blockLen] {
				n[o.Kind]++
			}
			if want := int(math.Round(w.scanFrac * blockLen)); n[opScan] != want {
				t.Errorf("%s block %d: %d scans, want %d", w.name, b/blockLen, n[opScan], want)
			}
			if want := int(math.Round(w.readFrac * blockLen)); n[opRead] != want {
				t.Errorf("%s block %d: %d reads, want %d", w.name, b/blockLen, n[opRead], want)
			}
		}
	}
}
