package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// ledger tracks which jobs the server acknowledged as live: the base jobs
// plus every acknowledged admit not followed by an acknowledged evict.
type ledger map[string]bool

func (lg ledger) record(rn *run) {
	for i, r := range rn.res {
		o := rn.ops[i]
		if r.Err != nil || o.W == nil {
			continue
		}
		switch o.W.Kind {
		case workload.ChurnAdd:
			lg[o.Job] = true
		case workload.ChurnRemove:
			delete(lg, o.Job)
		}
	}
}

// barrier takes GET /v1/snapshot, which folds any phase-buffered deltas
// and publishes, and then the allocation served after it.
func barrier(cl *api.Client) (scheduler.Snapshot, api.AllocationResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	snap, err := cl.Snapshot(ctx)
	if err != nil {
		return snap, api.AllocationResponse{}, fmt.Errorf("snapshot: %w", err)
	}
	alloc, err := cl.Allocation(ctx)
	if err != nil {
		return snap, alloc, fmt.Errorf("allocation: %w", err)
	}
	return snap, alloc, nil
}

// checkAllocation rebuilds one monolithic scheduler from the snapshot,
// solves it from scratch with core.Solver, and checks every served share
// aggregate against it within 1e-9·Scale. Behind the shard router this is the
// cluster ≡ monolith property. It also checks that core.Explain
// classifies every job, and that the ledger's jobs are all present.
func checkAllocation(caps []float64, polName string, snap scheduler.Snapshot, alloc api.AllocationResponse, want ledger) error {
	pol, err := policy.ForName(polName)
	if err != nil {
		return err
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		return err
	}
	// The router's merged snapshot is diagnostic: no policy stamp and no
	// external weight, which is exactly the monolith's view.
	snap.ExternalWeight = 0
	snap.Phase = nil
	if err := sc.Restore(snap); err != nil {
		return fmt.Errorf("restoring monolith: %w", err)
	}
	in := sc.Instance()
	ref, _, err := pol.Allocate(context.Background(), &policy.View{Inst: in, Solver: &core.Solver{}})
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	if len(alloc.Jobs) != len(in.JobName) {
		return fmt.Errorf("served %d jobs, snapshot holds %d", len(alloc.Jobs), len(in.JobName))
	}
	// Aggregates are unique under max-min fairness; the per-site split
	// of a job's aggregate is not, so sites are checked for feasibility.
	tol := 1e-9 * in.Scale()
	served := &core.Allocation{Inst: in, Share: make([][]float64, len(in.JobName))}
	for j, id := range in.JobName {
		got, ok := alloc.Jobs[id]
		if !ok {
			return fmt.Errorf("job %q missing from served allocation", id)
		}
		if len(got.Shares) != len(caps) {
			return fmt.Errorf("job %q: %d shares, want %d", id, len(got.Shares), len(caps))
		}
		served.Share[j] = got.Shares
		if a, want := served.Aggregate(j), ref.Aggregate(j); math.Abs(a-want) > tol || math.Abs(got.Aggregate-want) > tol {
			return fmt.Errorf("job %q: served aggregate %g (reported %g), from-scratch %g (tol %g)", id, a, got.Aggregate, want, tol)
		}
	}
	if err := served.CheckFeasible(1e-6 * in.Scale()); err != nil {
		return fmt.Errorf("served allocation infeasible: %w", err)
	}
	var floors []float64
	if pol.Capabilities().GlobalWeightFloors {
		floors = core.EqualShares(in)
	}
	for _, je := range core.Explain(in, served.Share, floors).Jobs {
		switch je.Limit {
		case core.ExplainDemandCapped, core.ExplainBottlenecked, core.ExplainFloorBound, core.ExplainZeroDemand:
		default:
			return fmt.Errorf("explain left job %q unclassified (%q)", je.Name, je.Limit)
		}
	}
	for id := range want {
		if _, ok := alloc.Jobs[id]; !ok {
			return fmt.Errorf("acknowledged job %q missing", id)
		}
	}
	return nil
}

// checkRecovered compares the state recovered after a crash with the
// pre-kill barrier: the same jobs with bit-identical state, and the same
// aggregate shares within 1e-9·Scale.
func checkRecovered(pre, post scheduler.Snapshot, preAlloc, postAlloc api.AllocationResponse, scale float64) error {
	a, b := jobsByID(pre), jobsByID(post)
	if len(a) != len(b) {
		return fmt.Errorf("recovered %d jobs, %d before the crash", len(b), len(a))
	}
	for _, id := range sortedKeys(a) {
		if !reflect.DeepEqual(a[id], b[id]) {
			return fmt.Errorf("job %q recovered as %+v, was %+v", id, b[id], a[id])
		}
	}
	tol := 1e-9 * scale
	for id, pj := range preAlloc.Jobs {
		qj, ok := postAlloc.Jobs[id]
		if !ok {
			return fmt.Errorf("job %q missing from recovered allocation", id)
		}
		if math.Abs(pj.Aggregate-qj.Aggregate) > tol {
			return fmt.Errorf("job %q: recovered aggregate %g, was %g", id, qj.Aggregate, pj.Aggregate)
		}
	}
	if len(postAlloc.Jobs) != len(preAlloc.Jobs) {
		return fmt.Errorf("recovered allocation has %d jobs, was %d", len(postAlloc.Jobs), len(preAlloc.Jobs))
	}
	return nil
}

func jobsByID(s scheduler.Snapshot) map[string]scheduler.Job {
	m := make(map[string]scheduler.Job, len(s.Jobs))
	for _, j := range s.Jobs {
		m[j.ID] = j
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
