package scheduler

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
)

func newTestScheduler(t *testing.T, caps ...float64) *Scheduler {
	t.Helper()
	sc, err := New(Config{SiteCapacity: caps, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func feq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no sites accepted")
	}
	if _, err := New(Config{SiteCapacity: []float64{-1}}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestAddAndAllocate(t *testing.T) {
	sc := newTestScheduler(t, 1, 1)
	if err := sc.AddJob("flexible", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sc.AddJob("pinned", 1, []float64{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	agg, err := sc.Aggregate("pinned")
	if err != nil {
		t.Fatal(err)
	}
	if !feq(agg, 1) {
		t.Fatalf("pinned aggregate %g, want 1 (AMF should route flexible away)", agg)
	}
	sh, err := sc.Shares("flexible")
	if err != nil {
		t.Fatal(err)
	}
	if !feq(sh[1], 1) {
		t.Fatalf("flexible shares %v, want all at site 1", sh)
	}
}

func TestAddJobErrors(t *testing.T) {
	sc := newTestScheduler(t, 1)
	if err := sc.AddJob("a", 1, []float64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sc.AddJob("a", 1, []float64{1}, nil); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := sc.AddJob("b", 1, []float64{1, 2}, nil); err == nil {
		t.Fatal("wrong-length demand accepted")
	}
	if err := sc.AddJob("c", 1, []float64{-1}, nil); err == nil {
		t.Fatal("negative demand accepted")
	}
	if err := sc.AddJob("d", 1, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("wrong-length work accepted")
	}
}

func TestRemoveJobReallocates(t *testing.T) {
	sc := newTestScheduler(t, 2)
	_ = sc.AddJob("a", 1, []float64{2}, nil)
	_ = sc.AddJob("b", 1, []float64{2}, nil)
	agg, _ := sc.Aggregate("a")
	if !feq(agg, 1) {
		t.Fatalf("shared aggregate %g, want 1", agg)
	}
	if err := sc.RemoveJob("b"); err != nil {
		t.Fatal(err)
	}
	agg, _ = sc.Aggregate("a")
	if !feq(agg, 2) {
		t.Fatalf("after removal aggregate %g, want 2", agg)
	}
	if err := sc.RemoveJob("nope"); err == nil {
		t.Fatal("unknown removal accepted")
	}
}

func TestProgressHysteresis(t *testing.T) {
	sc := newTestScheduler(t, 4)
	_ = sc.AddJob("a", 1, []float64{4}, []float64{10})
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	before := sc.Stats().Solves

	// Partial progress does not change topology: no new solve.
	for i := 0; i < 5; i++ {
		done, err := sc.ReportProgress("a", []float64{1})
		if err != nil || done {
			t.Fatalf("progress %d: done=%v err=%v", i, done, err)
		}
		if _, err := sc.Allocation(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sc.Stats().Solves; got != before {
		t.Fatalf("progress caused %d extra solves", got-before)
	}
	if sc.Stats().Skipped == 0 {
		t.Fatal("expected cached queries to be counted")
	}
}

func TestProgressCompletesJob(t *testing.T) {
	sc := newTestScheduler(t, 2)
	_ = sc.AddJob("a", 1, []float64{2}, []float64{3})
	_ = sc.AddJob("b", 1, []float64{2}, []float64{3})
	done, err := sc.ReportProgress("a", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("job should have completed")
	}
	if _, err := sc.Shares("a"); err == nil {
		t.Fatal("completed job still queryable")
	}
	// Survivor gets the whole site now.
	agg, _ := sc.Aggregate("b")
	if !feq(agg, 2) {
		t.Fatalf("survivor aggregate %g, want 2", agg)
	}
	st := sc.Stats()
	if st.Completed != 1 || st.Jobs != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProgressSiteExhaustion(t *testing.T) {
	// Job has work at two sites; exhausting one must drop its demand there
	// and trigger a re-solve giving the freed capacity to the other job.
	sc := newTestScheduler(t, 1, 1)
	_ = sc.AddJob("multi", 1, []float64{1, 1}, []float64{2, 5})
	_ = sc.AddJob("pinned", 1, []float64{1, 0}, []float64{5, 0})
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	// Exhaust multi's site-0 work.
	if _, err := sc.ReportProgress("multi", []float64{2, 0}); err != nil {
		t.Fatal(err)
	}
	sh, err := sc.Shares("multi")
	if err != nil {
		t.Fatal(err)
	}
	if sh[0] != 0 {
		t.Fatalf("exhausted site still allocated: %v", sh)
	}
	agg, _ := sc.Aggregate("pinned")
	if !feq(agg, 1) {
		t.Fatalf("pinned aggregate %g after exhaustion, want full site", agg)
	}
}

func TestProgressErrors(t *testing.T) {
	sc := newTestScheduler(t, 1)
	_ = sc.AddJob("a", 1, []float64{1}, nil)
	if _, err := sc.ReportProgress("nope", []float64{0}); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := sc.ReportProgress("a", []float64{0, 0}); err == nil {
		t.Fatal("wrong-length progress accepted")
	}
	if _, err := sc.ReportProgress("a", []float64{-1}); err == nil {
		t.Fatal("negative progress accepted")
	}
}

func TestWeightsRespected(t *testing.T) {
	sc := newTestScheduler(t, 6)
	_ = sc.AddJob("light", 1, []float64{10}, nil)
	_ = sc.AddJob("heavy", 2, []float64{10}, nil)
	la, _ := sc.Aggregate("light")
	ha, _ := sc.Aggregate("heavy")
	if !feq(la, 2) || !feq(ha, 4) {
		t.Fatalf("weighted split %g/%g, want 2/4", la, ha)
	}
}

func TestDefaultWeight(t *testing.T) {
	sc := newTestScheduler(t, 2)
	_ = sc.AddJob("a", 0, []float64{2}, nil) // weight defaults to 1
	_ = sc.AddJob("b", 1, []float64{2}, nil)
	aa, _ := sc.Aggregate("a")
	if !feq(aa, 1) {
		t.Fatalf("default-weight aggregate %g, want 1", aa)
	}
}

func TestEmptySchedulerAllocation(t *testing.T) {
	sc := newTestScheduler(t, 1)
	m, err := sc.Allocation()
	if err != nil || len(m) != 0 {
		t.Fatalf("empty allocation %v err %v", m, err)
	}
}

func TestInstanceSnapshot(t *testing.T) {
	sc := newTestScheduler(t, 1, 2)
	_ = sc.AddJob("a", 1.5, []float64{1, 2}, []float64{3, 4})
	in := sc.Instance()
	if in.NumJobs() != 1 || in.NumSites() != 2 {
		t.Fatalf("snapshot dims %dx%d", in.NumJobs(), in.NumSites())
	}
	if in.Weight[0] != 1.5 || in.Work[0][1] != 4 || in.JobName[0] != "a" {
		t.Fatalf("snapshot lost fields: %+v", in)
	}
	// Mutating the snapshot must not affect the scheduler.
	in.Demand[0][0] = 99
	sh, _ := sc.Shares("a")
	if sh[0] > 1+1e-9 {
		t.Fatal("snapshot aliases live state")
	}
}

func TestPolicySelection(t *testing.T) {
	// Under PS-MMF the pinned job gets only half of the contested site.
	sc, err := New(Config{SiteCapacity: []float64{1, 1}, Policy: policy.PSMMF})
	if err != nil {
		t.Fatal(err)
	}
	_ = sc.AddJob("flexible", 1, []float64{1, 1}, nil)
	_ = sc.AddJob("pinned", 1, []float64{1, 0}, nil)
	agg, _ := sc.Aggregate("pinned")
	if !feq(agg, 0.5) {
		t.Fatalf("PS-MMF pinned aggregate %g, want 0.5", agg)
	}
}

func TestConcurrentAccess(t *testing.T) {
	sc := newTestScheduler(t, 4, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := string(rune('a' + w))
			if err := sc.AddJob(id, 1, []float64{2, 2}, []float64{10, 10}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := sc.Shares(id); err != nil {
					t.Error(err)
					return
				}
				if _, err := sc.ReportProgress(id, []float64{0.1, 0.1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := sc.Stats().Jobs; got != 8 {
		t.Fatalf("jobs %d, want 8", got)
	}
	// All shares must form a feasible allocation.
	m, err := sc.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	var load0, load1 float64
	for _, sh := range m {
		load0 += sh[0]
		load1 += sh[1]
	}
	if load0 > 4+1e-6 || load1 > 4+1e-6 {
		t.Fatalf("over-allocated: %g/%g", load0, load1)
	}
}

func TestSolveCountedOncePerChange(t *testing.T) {
	sc := newTestScheduler(t, 1)
	_ = sc.AddJob("a", 1, []float64{1}, nil)
	_, _ = sc.Allocation()
	_, _ = sc.Allocation()
	_, _ = sc.Shares("a")
	st := sc.Stats()
	if st.Solves != 1 {
		t.Fatalf("solves %d, want 1", st.Solves)
	}
	if st.Skipped != 2 {
		t.Fatalf("skipped %d, want 2", st.Skipped)
	}
}

func TestUpdateWeight(t *testing.T) {
	sc := newTestScheduler(t, 6)
	_ = sc.AddJob("a", 1, []float64{6}, nil)
	_ = sc.AddJob("b", 1, []float64{6}, nil)
	aa, _ := sc.Aggregate("a")
	if !feq(aa, 3) {
		t.Fatalf("initial split %g", aa)
	}
	if err := sc.UpdateWeight("a", 2); err != nil {
		t.Fatal(err)
	}
	aa, _ = sc.Aggregate("a")
	bb, _ := sc.Aggregate("b")
	if !feq(aa, 4) || !feq(bb, 2) {
		t.Fatalf("after weight bump %g/%g, want 4/2", aa, bb)
	}
	if err := sc.UpdateWeight("ghost", 2); err == nil {
		t.Fatal("unknown job accepted")
	}
	// Same weight: no re-solve.
	before := sc.Stats().Solves
	_ = sc.UpdateWeight("a", 2)
	_, _ = sc.Allocation()
	if sc.Stats().Solves != before {
		t.Fatal("no-op weight update caused a solve")
	}
	// Weight <= 0 resets to 1.
	_ = sc.UpdateWeight("a", 0)
	aa, _ = sc.Aggregate("a")
	if !feq(aa, 3) {
		t.Fatalf("reset weight split %g, want 3", aa)
	}
}

func TestStatsSolveDurations(t *testing.T) {
	sc := newTestScheduler(t, 1, 1)
	var hookDurs []time.Duration
	sc.SetOnSolve(func(d time.Duration) { hookDurs = append(hookDurs, d) })
	if st := sc.Stats(); st.LastSolve != 0 || st.TotalSolveTime != 0 {
		t.Fatalf("fresh controller has solve durations: %+v", st)
	}
	if err := sc.AddJob("a", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.Solves != 1 || st.LastSolve <= 0 || st.TotalSolveTime < st.LastSolve {
		t.Fatalf("after one solve: %+v", st)
	}
	if len(hookDurs) != 1 || hookDurs[0] != st.LastSolve {
		t.Fatalf("OnSolve hook saw %v, stats say %v", hookDurs, st.LastSolve)
	}
	// A cached query must not touch the durations.
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	if st2 := sc.Stats(); st2.TotalSolveTime != st.TotalSolveTime || len(hookDurs) != 1 {
		t.Fatalf("cached query changed solve accounting: %+v", st2)
	}
	// Another dirtying mutation accumulates.
	if err := sc.AddJob("b", 1, []float64{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	if st3 := sc.Stats(); st3.Solves != 2 || st3.TotalSolveTime <= st.TotalSolveTime || len(hookDurs) != 2 {
		t.Fatalf("after second solve: %+v (hook %v)", st3, hookDurs)
	}
}

// TestResolveConsistentView checks Resolve's read-only-view contract: the
// instance and share rows it returns are immutable snapshots, so a view
// taken before further mutations must be unchanged afterwards — mutations
// replace rows, they never write published ones in place.
func TestResolveConsistentView(t *testing.T) {
	sc := newTestScheduler(t, 1, 1)
	for _, id := range []string{"a", "b", "c"} {
		if err := sc.AddJob(id, 1, []float64{1, 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	in, shares, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if in.NumJobs() != 3 || len(shares) != 3 {
		t.Fatalf("resolve: %d jobs, %d share rows", in.NumJobs(), len(shares))
	}
	for _, id := range in.JobName {
		if len(shares[id]) != in.NumSites() {
			t.Fatalf("job %q has row %v", id, shares[id])
		}
	}
	before := core.Instance{
		SiteCapacity: append([]float64(nil), in.SiteCapacity...),
		Demand:       [][]float64{append([]float64(nil), in.Demand[0]...)},
	}
	shareA := append([]float64(nil), shares["a"]...)

	// Mutate the controller every way that touches job "a"'s state: the
	// published view must not move.
	if err := sc.UpdateWeight("a", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ReportProgress("a", []float64{0.4, 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := sc.RemoveJob("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Resolve(); err != nil {
		t.Fatal(err)
	}
	for s := range before.SiteCapacity {
		if in.SiteCapacity[s] != before.SiteCapacity[s] {
			t.Fatalf("site %d capacity moved under a published view: %g -> %g",
				s, before.SiteCapacity[s], in.SiteCapacity[s])
		}
	}
	for s, d := range before.Demand[0] {
		if in.Demand[0][s] != d {
			t.Fatalf("demand row mutated in place under a published view: %v -> %v",
				before.Demand[0], in.Demand[0])
		}
	}
	for s, v := range shareA {
		if shares["a"][s] != v {
			t.Fatalf("share row mutated in place under a published view: %v -> %v",
				shareA, shares["a"])
		}
	}
}

// TestPhaseClassifierHugeWindow: the classifier window arrives from
// outside (PATCH /v1/config, a replayed set_config record), so a huge
// value must cost memory only as solves fill the window, not up front,
// and the classifier must still mark a constantly-dirtied component hot.
func TestPhaseClassifierHugeWindow(t *testing.T) {
	sc := newTestScheduler(t, 4, 4)
	hot, window := 0.5, math.MaxInt
	if err := sc.ApplyConfigPatch(ConfigPatch{HotThreshold: &hot, Window: &window}); err != nil {
		t.Fatal(err)
	}
	if err := sc.AddJob("a", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sc.UpdateWeight("a", float64(2+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Allocation(); err != nil {
			t.Fatal(err)
		}
	}
	if hs := sc.HotSet(); hs == nil || hs.Jobs["a"] == "" {
		t.Fatalf("constantly dirtied component not classified hot: %+v", hs)
	}
}
