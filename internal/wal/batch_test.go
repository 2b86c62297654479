package wal

import (
	"bytes"
	"testing"

	"repro/internal/policy"
	"repro/internal/scheduler"
)

func newScheduler(t *testing.T) *scheduler.Scheduler {
	t.Helper()
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestMutationApplyAllOps(t *testing.T) {
	sc := newScheduler(t)
	muts := []Mutation{
		{Op: OpAddQueue, ID: "prod", Weight: 2},
		{Op: OpAddJob, ID: "a", Weight: 1, Demand: []float64{1, 1, 0}},
		{Op: OpAddJob, ID: "q", Queue: "prod", Weight: 1, Demand: []float64{0, 1, 1}},
		{Op: OpAddJobs, Jobs: []scheduler.JobSpec{
			{ID: "b1", Demand: []float64{1, 0, 0}},
			{ID: "b2", Demand: []float64{0, 0, 1}},
		}},
		{Op: OpWeight, ID: "a", Weight: 3},
		{Op: OpProgress, ID: "a", Done: []float64{0.5, 0, 0}},
		{Op: OpRemoveJob, ID: "b1"},
	}
	for i, m := range muts {
		if _, err := m.Apply(sc); err != nil {
			t.Fatalf("mutation %d (%s): %v", i, m.Op, err)
		}
	}
	if st := sc.Stats(); st.Jobs != 3 {
		t.Fatalf("jobs after replay = %d, want 3", st.Jobs)
	}
	if q, err := sc.QueueOf("q"); err != nil || q != "prod" {
		t.Fatalf("QueueOf(q) = %q, %v", q, err)
	}
}

func TestMutationApplyUnknownOp(t *testing.T) {
	sc := newScheduler(t)
	if _, err := (Mutation{Op: "bogus"}).Apply(sc); err == nil {
		t.Fatal("unknown op applied cleanly")
	}
	if _, err := (Mutation{Op: OpRestore}).Apply(sc); err == nil {
		t.Fatal("restore without state applied cleanly")
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	in := []Mutation{
		{Op: OpAddJob, ID: "a", Weight: 2, Demand: []float64{1, 0, 1}, Work: []float64{5, 0, 5}},
		{Op: OpProgress, ID: "a", Done: []float64{1, 0, 0}},
	}
	payload, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].ID != "a" || out[0].Weight != 2 || out[1].Op != OpProgress {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := DecodeBatch([]byte("{not json")); err == nil {
		t.Fatal("garbage batch decoded")
	}
}

func TestRecoveryReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Base state folded into a snapshot, then a mutation tail.
	base := newScheduler(t)
	if err := base.AddJob("base", 1, []float64{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	state, err := EncodeState(base.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	tail := [][]Mutation{
		{{Op: OpAddJob, ID: "t1", Weight: 1, Demand: []float64{2, 0, 0}}},
		{{Op: OpAddJob, ID: "t2", Weight: 1, Demand: []float64{0, 2, 0}},
			{Op: OpWeight, ID: "base", Weight: 4}},
	}
	for _, batch := range tail {
		payload, err := EncodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := newScheduler(t)
	st, err := rec.Replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Restored || st.Batches != 2 || st.Mutations != 3 || st.Failed != 0 {
		t.Fatalf("replay stats = %+v", st)
	}
	if got := sc.Stats().Jobs; got != 3 {
		t.Fatalf("jobs after replay = %d, want 3", got)
	}
	snap := sc.Snapshot()
	for _, j := range snap.Jobs {
		if j.ID == "base" && j.Weight != 4 {
			t.Fatalf("base weight = %g, want the tail's update to 4", j.Weight)
		}
	}
}

// FuzzMutationApply feeds arbitrary record payloads through the mutation
// decoder and Mutation.Apply — the path recovery and read replicas run on
// every logged batch. Nothing may panic: a payload that decodes is applied
// to fresh AMF and Enhanced-AMF controllers, which must then still solve
// (an error is fine). A decoded batch must also survive the codec: it
// re-encodes, decodes back, and that value re-encodes to the same bytes.
// (Equality is judged on the encoding because omitempty folds an empty
// slice into an absent one, which decodes as nil.)
func FuzzMutationApply(f *testing.F) {
	eps, threshold, pol := 0.01, 8, "amf-enhanced"
	hot, batches, window := 0.5, 2, 4
	for _, m := range []Mutation{
		{Op: OpAddJob, ID: "a", Weight: 2, Demand: []float64{1, 1, 0}, Work: []float64{3, 3, 0}},
		{Op: OpAddJobs, Jobs: []scheduler.JobSpec{
			{ID: "b1", Demand: []float64{1, 0, 0}},
			{ID: "b2", Weight: 3, Demand: []float64{0, 0, 1}, Work: []float64{0, 0, 2}},
		}},
		{Op: OpAddQueue, ID: "prod", Weight: 2},
		{Op: OpRemoveJob, ID: "a"},
		{Op: OpProgress, ID: "a", Done: []float64{0.5, 0, 0}},
		{Op: OpWeight, ID: "a", Weight: 4},
		{Op: OpRestore, State: &scheduler.Snapshot{
			Jobs:   []scheduler.Job{{ID: "r", Weight: 1, Demand: []float64{1, 1, 1}}},
			Queues: map[string]float64{"prod": 2},
		}},
		{Op: OpExternalWeight, Weight: 3},
		{Op: OpSetPolicy, Policy: "drf"},
		{Op: OpSetConfig, Config: &scheduler.ConfigPatch{
			Policy: &pol, ApproxEpsilon: &eps, ApproxThreshold: &threshold,
			HotThreshold: &hot, MaxBatches: &batches, Window: &window,
		}},
	} {
		// Each seed is the op after a job to act on, so the interesting
		// (successful) paths are reachable without the fuzzer inventing one.
		payload, err := EncodeBatch([]Mutation{
			{Op: OpAddJob, ID: "a", Weight: 1, Demand: []float64{1, 1, 0}, Work: []float64{1, 1, 0}}, m,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"op":"bogus"}]`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ms, err := DecodeBatch(payload)
		if err != nil {
			return
		}
		// Round-trip before applying: Apply hands slices to the scheduler.
		enc, err := EncodeBatch(ms)
		if err != nil {
			t.Fatalf("re-encoding a decoded batch: %v", err)
		}
		back, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("decoding a re-encoded batch: %v", err)
		}
		if again, err := EncodeBatch(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("batch changed across the codec:\n%s\n%s (%v)", enc, again, err)
		}
		for _, p := range []policy.Policy{policy.AMF, policy.EnhancedAMF} {
			sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 8}, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				_, _ = m.Apply(sc)
			}
			_, _ = sc.Allocation()
		}
	})
}
