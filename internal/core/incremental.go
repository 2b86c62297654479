package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Incremental solving: re-solve only the connected components a mutation
// batch actually touched, splicing carried results for the rest.
//
// The component decomposition (partition.go) makes each connected component
// of the job×site demand graph an independent sub-problem, but a plain
// decomposed solve still re-partitions and re-solves every component from
// scratch. In a serving deployment most mutation batches are local — the
// paper's data-locality premise means a batch typically touches one job in
// one component — so an IncrementalSolver carries three pieces of state
// from solve to solve:
//
//   - The partition itself. Union-find runs only over the jobs of affected
//     components (those that gained, lost or changed a member, or own a
//     site a mutated job now touches); every other component keeps its
//     membership untouched. Merges and re-splits therefore cost time
//     proportional to the components involved, not the instance.
//
//   - Per-component results. An untouched component's share rows are
//     spliced from its previous solve. A touched component is always a
//     new incComp — repartition replaces every component whose membership
//     or content changed — so it is solved; nothing else can be reused
//     for it.
//
//   - The Enhanced-AMF weight-sum memo. Floors (EqualShares) depend only
//     on a job's own row, the site capacities and the GLOBAL weight sum W,
//     so a W change moves every job's floor and invalidates all
//     components, even untouched ones. Each component therefore keeps its
//     results keyed by Float64bits(W): an untouched component under a W
//     change recalls the result it had when W last took that exact value
//     (the return leg of a transient job admitted then removed) and is
//     solved otherwise. Entries unused for memoAge solves expire, and the
//     memo dies with its component, so it needs no other invalidation.
//
// Every reuse decision is an exact comparison. The solver copies the site
// capacities and the Solver's approximate-path knobs whenever it starts
// fresh, and any difference on a later call drops all carried state.
//
// Share rows handed out by Solve are immutable and shared: the same row
// backs the weight-sum memo, subsequent allocations, and anything the caller
// published. Callers must treat Allocation.Share as read-only.

// IncrementalStats describes how the most recent IncrementalSolver.Solve
// executed, plus cumulative reuse accounting across the solver's lifetime.
type IncrementalStats struct {
	// Components is the number of live connected components after the
	// solve; LargestComponent is the job count of the biggest one.
	Components       int
	LargestComponent int
	// Reused counts untouched components spliced from their previous
	// result; CacheHits counts untouched components recalled from their
	// Enhanced-AMF weight-sum memo after a weight-sum change (always zero
	// under plain AMF); Solved counts components actually re-solved.
	// Reused + CacheHits + Solved == Components.
	Reused    int
	CacheHits int
	Solved    int
	// SequentialTime sums the per-component solve wall times; WallTime is
	// the wall-clock time of the whole Solve call (partition maintenance
	// and result splicing included). Speedup is their ratio
	// (zero when nothing was solved).
	SequentialTime time.Duration
	WallTime       time.Duration
	Speedup        float64
	// TotalCacheHits accumulates CacheHits and TotalCacheMisses
	// accumulates Solved over the solver's lifetime, so hits/(hits+misses)
	// is the share of non-spliced components the memo recalled.
	// GlobalInvalidations counts Enhanced-AMF floor invalidations
	// (weight-sum changes).
	TotalCacheHits      int64
	TotalCacheMisses    int64
	GlobalInvalidations int64
	// ApproxComponents counts components of the most recent solve that
	// routed through the approximate water-filling fast path;
	// ApproxErrorBound is their largest certified per-job aggregate
	// deviation from the exact allocation (see SolveStats).
	ApproxComponents int
	ApproxErrorBound float64
}

// IncrementalSolver computes AMF (or Enhanced-AMF) allocations across a
// stream of instance revisions, re-solving only the components invalidated
// since the previous call. The zero value is ready to use. Unlike Solver,
// an IncrementalSolver is NOT safe for concurrent use: callers (the
// scheduler controller) serialize Solve/LastStats/Reset externally.
type IncrementalSolver struct {
	// Solver is the underlying component solver (default NewSolver()); its
	// scratch pool keeps flow-network arenas warm across components.
	Solver *Solver
	// Enhanced applies the sharing-incentive floors (EnhancedAMF).
	Enhanced bool

	gen      uint64
	jobs     map[string]*incComp // job name -> component (nil: zero demand)
	comps    map[int]*incComp
	nextID   int
	siteComp []int // site -> owning component id, -1 unowned
	// caps and approxEps/approxThr are the site capacities and Solver
	// knobs the carried state was solved under.
	caps      []float64
	approxEps float64
	approxThr int
	prevW     uint64 // Float64bits of the previous Enhanced-AMF weight sum
	havePrevW bool
	stats     IncrementalStats
}

// memoAge is how many solves an unused weight-sum memo entry survives.
const memoAge = 8

// incComp is one live connected component carried across solves.
type incComp struct {
	id    int
	key   string   // stable identity: lexicographically smallest member name
	jobs  []string // member job names, sorted to instance order at use
	sites []int    // sorted global site indices
	dirty bool

	// mutGen is the generation at which a mutation last dirtied this
	// component; solveGen/lastSolve record its most recent actual solve.
	// The scheduler's hot/cold classifier reads these via VisitComponents.
	mutGen    uint64
	solveGen  uint64
	lastSolve time.Duration

	result *compResult
	// memo holds this component's Enhanced-AMF results by Float64bits of
	// the weight sum they were solved under (nil under plain AMF).
	memo map[uint64]*compResult
}

// CompStat is the per-component telemetry row VisitComponents reports
// after a Solve: the component's stable identity, membership, whether the
// most recent Solve dirtied (Touched) or actually re-solved (Solved) it,
// and the wall time of its most recent solve. Jobs and Sites are the
// solver's own slices — callers must treat them as read-only and must not
// retain them across Solve calls.
type CompStat struct {
	Key       string
	Jobs      []string
	Sites     []int
	Touched   bool
	Solved    bool
	LastSolve time.Duration
}

// VisitComponents calls fn for every live component, in no particular
// order. Like Solve, it must be externally serialized with Solve/Reset.
func (x *IncrementalSolver) VisitComponents(fn func(CompStat)) {
	for _, c := range x.comps {
		fn(CompStat{
			Key:       c.key,
			Jobs:      c.jobs,
			Sites:     c.sites,
			Touched:   c.mutGen == x.gen,
			Solved:    c.solveGen == x.gen,
			LastSolve: c.lastSolve,
		})
	}
}

// compResult is one component solution: an immutable full-width share row
// per member job, and the generation that last used it (memo expiry).
type compResult struct {
	shares   map[string][]float64
	lastUsed uint64
}

// Reset drops all carried state (partition, results, memos); the next
// Solve runs from scratch. Cumulative counters are kept.
func (x *IncrementalSolver) Reset() {
	x.jobs = nil
	x.comps = nil
	x.siteComp = nil
	x.havePrevW = false
}

// LastStats reports the record of the most recent Solve.
func (x *IncrementalSolver) LastStats() IncrementalStats { return x.stats }

// Solve computes the allocation for in, reusing every component result the
// mutations since the previous Solve cannot have invalidated.
//
// Contract: in.JobName must hold a unique non-empty name per job — names
// are how jobs are identified across revisions. dirty must contain the
// name of every job whose weight, demand or work changed since the
// previous Solve (added jobs may appear but are detected regardless, as
// are removals, via the job-set diff). Site count, capacities and the
// Solver's approximate-path knobs are expected to be stable across calls;
// if any of them changes, all carried state is dropped and the solve runs
// from scratch.
//
// The returned allocation's share rows are immutable views shared with the
// solver's carried state and with previous/future results: callers must
// not mutate them.
func (x *IncrementalSolver) Solve(in *Instance, dirty map[string]bool) (*Allocation, error) {
	start := time.Now()
	n, m := in.NumJobs(), in.NumSites()
	if len(in.JobName) != n {
		return nil, fmt.Errorf("core: incremental solve needs a name per job (%d names, %d jobs)", len(in.JobName), n)
	}
	sv := x.Solver
	if sv == nil {
		sv = NewSolver()
		x.Solver = sv
	}

	fresh := x.jobs == nil || !sameBits(x.caps, in.SiteCapacity) ||
		math.Float64bits(x.approxEps) != math.Float64bits(sv.ApproxEpsilon) || x.approxThr != sv.ApproxThreshold
	// Validation is itself incremental: a full O(n·m) Instance.Validate
	// only when carried state resets; afterwards, cheap shape checks here
	// plus a float scan of just the dirty rows (validateJobData below) —
	// clean rows were validated by the solve that last saw them change.
	// (The dirty-row scans run inside the diff loop and are accounted to
	// the partition stage.)
	tValidate := time.Now()
	if fresh {
		if err := in.Validate(); err != nil {
			return nil, err
		}
	} else {
		if in.Weight != nil && len(in.Weight) != n {
			return nil, fmt.Errorf("core: %d weights for %d jobs", len(in.Weight), n)
		}
		if in.Work != nil && len(in.Work) != n {
			return nil, fmt.Errorf("core: %d work rows for %d jobs", len(in.Work), n)
		}
		for j, row := range in.Demand {
			if len(row) != m {
				return nil, fmt.Errorf("core: job %d has %d demand entries, want %d", j, len(row), m)
			}
			if in.Work != nil && len(in.Work[j]) != m {
				return nil, fmt.Errorf("core: job %d has %d work entries, want %d", j, len(in.Work[j]), m)
			}
		}
	}
	sv.stage(StageValidate, time.Since(tValidate), false)
	if fresh {
		x.caps = append(x.caps[:0], in.SiteCapacity...)
		x.approxEps, x.approxThr = sv.ApproxEpsilon, sv.ApproxThreshold
		x.jobs = make(map[string]*incComp, n)
		x.comps = map[int]*incComp{}
		x.siteComp = make([]int, m)
		for s := range x.siteComp {
			x.siteComp[s] = -1
		}
		x.havePrevW = false
	}
	x.gen++
	tPartition := time.Now()

	idx := make(map[string]int, n)
	for i, name := range in.JobName {
		if name == "" {
			return nil, fmt.Errorf("core: incremental solve needs non-empty job names (job %d)", i)
		}
		if _, dup := idx[name]; dup {
			return nil, fmt.Errorf("core: incremental solve needs unique job names (%q duplicated)", name)
		}
		idx[name] = i
	}

	// Enhanced-AMF floors are computed against the FULL instance
	// (EqualShares depends on the global weight sum) and sliced per
	// component. A weight-sum change moves every floor: no component may
	// splice its current result, only one memoized under this exact sum.
	var floors []float64
	var wbits uint64
	globalInval := false
	if x.Enhanced {
		wsum := in.ExternalWeight
		for j := 0; j < n; j++ {
			wsum += in.JobWeight(j)
		}
		floors = EqualShares(in)
		wbits = math.Float64bits(wsum)
		if x.havePrevW && wbits != x.prevW {
			globalInval = true
			x.stats.GlobalInvalidations++
		}
		x.prevW, x.havePrevW = wbits, true
	}

	// Diff the job set against the previous revision and close over the
	// affected components: any that lost a member, contain a mutated
	// member, or own a site a mutated job now touches (merge).
	affected := map[*incComp]bool{}
	var dirtyIdx []int
	for name, c := range x.jobs {
		if _, ok := idx[name]; !ok {
			if c != nil {
				affected[c] = true
			}
			delete(x.jobs, name)
		}
	}
	for i, name := range in.JobName {
		c, known := x.jobs[name]
		if known && !dirty[name] {
			continue
		}
		if !fresh {
			if err := validateJobData(in, i); err != nil {
				return nil, err
			}
		}
		dirtyIdx = append(dirtyIdx, i)
		if known && c != nil {
			affected[c] = true
		}
		for s, d := range in.Demand[i] {
			if d > 0 {
				if cid := x.siteComp[s]; cid >= 0 {
					affected[x.comps[cid]] = true
				}
			}
		}
	}
	if len(dirtyIdx) > 0 || len(affected) > 0 {
		x.repartition(in, idx, affected, dirtyIdx)
	}

	// Classify components: carried results splice directly; untouched ones
	// under a weight-sum change consult their memo; the rest are solved as
	// independent sub-instances on the worker pool. A component is dirty
	// exactly while it has no result.
	ids := make([]int, 0, len(x.comps))
	for id := range x.comps {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	st := IncrementalStats{Components: len(x.comps)}
	var toSolve []*incComp
	for _, id := range ids {
		c := x.comps[id]
		if nj := len(c.jobs); nj > st.LargestComponent {
			st.LargestComponent = nj
		}
		if c.dirty {
			// Mutation-dirty this generation (repartitioned or content
			// changed) — distinct from globalInval, which invalidates
			// untouched components without a mutation hit.
			c.mutGen = x.gen
		} else if !globalInval {
			c.result.lastUsed = x.gen
			st.Reused++
			continue
		} else if r := c.memo[wbits]; r != nil && x.gen-r.lastUsed <= memoAge {
			r.lastUsed = x.gen
			c.result = r
			st.CacheHits++
			x.stats.TotalCacheHits++
			continue
		}
		x.stats.TotalCacheMisses++
		c.result = nil
		c.dirty = true
		sort.Slice(c.jobs, func(a, b int) bool { return idx[c.jobs[a]] < idx[c.jobs[b]] })
		toSolve = append(toSolve, c)
	}
	st.Solved = len(toSolve)
	sv.stage(StagePartition, time.Since(tPartition), false)
	tSolve := time.Now()

	var seqNS atomic.Int64
	// perComp collects per-component solve wall times for detail stage
	// events and the hot/cold classifier; workers write disjoint indices,
	// so no lock is needed.
	perComp := make([]time.Duration, len(toSolve))
	// reps collects per-component approximate-path reports; same disjoint
	// indexing as perComp.
	reps := make([]approxReport, len(toSolve))
	if len(toSolve) > 0 {
		workers := sv.parallelism()
		if workers > len(toSolve) {
			workers = len(toSolve)
		}
		var (
			wg       sync.WaitGroup
			next     atomic.Int64
			errMu    sync.Mutex
			firstErr error
		)
		worker := func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(toSolve) {
					return
				}
				c := toSolve[k]
				t0 := time.Now()
				res, rep, err := x.solveComp(sv, in, idx, c, floors)
				d := time.Since(t0)
				reps[k] = rep
				seqNS.Add(int64(d))
				perComp[k] = d
				c.lastSolve = d
				c.solveGen = x.gen
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("core: incremental component (%d jobs): %w", len(c.jobs), err)
					}
					errMu.Unlock()
					return
				}
				// c stays dirty until its result lands, so a failed solve
				// leaves the state consistent for the next attempt.
				c.result = res
				c.dirty = false
			}
		}
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go worker()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if x.Enhanced {
			for _, c := range toSolve {
				c.remember(wbits, x.gen)
			}
		}
	}
	for _, d := range perComp {
		sv.stage(StageSolveComponent, d, true)
	}
	for _, rep := range reps {
		if rep.used {
			st.ApproxComponents++
			if rep.errBound > st.ApproxErrorBound {
				st.ApproxErrorBound = rep.errBound
			}
			if sv.OnStage != nil {
				sv.stage(StageSolveApprox, rep.d, true)
			}
		}
	}
	sv.stage(StageSolve, time.Since(tSolve), false)
	tMerge := time.Now()

	alloc := &Allocation{Inst: in, Share: make([][]float64, n)}
	for i, name := range in.JobName {
		c := x.jobs[name]
		if c == nil {
			alloc.Share[i] = make([]float64, m)
			continue
		}
		row := c.result.shares[name]
		if row == nil {
			return nil, fmt.Errorf("core: incremental state lost shares for job %q", name)
		}
		alloc.Share[i] = row
	}
	sv.stage(StageMerge, time.Since(tMerge), false)

	st.SequentialTime = time.Duration(seqNS.Load())
	st.WallTime = time.Since(start)
	if st.WallTime > 0 && st.SequentialTime > 0 {
		st.Speedup = float64(st.SequentialTime) / float64(st.WallTime)
	}
	st.TotalCacheHits = x.stats.TotalCacheHits
	st.TotalCacheMisses = x.stats.TotalCacheMisses
	st.GlobalInvalidations = x.stats.GlobalInvalidations
	x.stats = st
	// Mirror the decomposition record onto the underlying solver so
	// LastStats consumers see this solve regardless of entry point.
	sv.recordStats(SolveStats{
		Components:       st.Components,
		LargestComponent: st.LargestComponent,
		SequentialTime:   st.SequentialTime,
		WallTime:         st.WallTime,
		Speedup:          st.Speedup,
		ApproxComponents: st.ApproxComponents,
		ApproxErrorBound: st.ApproxErrorBound,
	})
	return alloc, nil
}

// repartition re-runs union-find over just the affected components' jobs
// plus the mutated/new jobs, dissolving the affected components and
// forming their replacements. Untouched components keep their membership,
// sites and results.
func (x *IncrementalSolver) repartition(in *Instance, idx map[string]int, affected map[*incComp]bool, dirtyIdx []int) {
	repart := map[int]bool{}
	for _, i := range dirtyIdx {
		repart[i] = true
	}
	for c := range affected {
		for _, name := range c.jobs {
			if i, ok := idx[name]; ok && x.jobs[name] == c {
				repart[i] = true
			}
		}
		for _, s := range c.sites {
			if x.siteComp[s] == c.id {
				x.siteComp[s] = -1
			}
		}
		delete(x.comps, c.id)
	}
	order := make([]int, 0, len(repart))
	for i := range repart {
		order = append(order, i)
	}
	sort.Ints(order)

	// Union-find over the sites these jobs touch; every such site is
	// unowned here (its owner, if any, was dissolved above).
	parent := map[int]int{}
	var find func(int) int
	find = func(s int) int {
		p, ok := parent[s]
		if !ok {
			parent[s] = s
			return s
		}
		if p != s {
			p = find(p)
			parent[s] = p
		}
		return p
	}
	for _, i := range order {
		first := -1
		for s, d := range in.Demand[i] {
			if d <= 0 {
				continue
			}
			if first < 0 {
				first = s
				find(s)
				continue
			}
			if ra, rb := find(first), find(s); ra != rb {
				parent[ra] = rb
			}
		}
	}
	byRoot := map[int]*incComp{}
	for _, i := range order {
		name := in.JobName[i]
		first := -1
		for s, d := range in.Demand[i] {
			if d > 0 {
				first = s
				break
			}
		}
		if first < 0 {
			x.jobs[name] = nil // zero demand: no component, zero shares
			continue
		}
		r := find(first)
		c := byRoot[r]
		if c == nil {
			c = &incComp{id: x.nextID, dirty: true}
			x.nextID++
			byRoot[r] = c
			x.comps[c.id] = c
		}
		c.jobs = append(c.jobs, name)
		x.jobs[name] = c
		for s, d := range in.Demand[i] {
			if d > 0 && x.siteComp[s] != c.id {
				x.siteComp[s] = c.id
				c.sites = append(c.sites, s)
			}
		}
	}
	for _, c := range byRoot {
		sort.Ints(c.sites)
		// Stable identity: the lexicographically smallest member name. It
		// survives re-splits as long as that member stays in the component,
		// which is what lets the classifier accumulate hit counts across
		// repartitions.
		c.key = c.jobs[0]
		for _, name := range c.jobs[1:] {
			if name < c.key {
				c.key = name
			}
		}
	}
}

// solveComp materializes one component as an independent sub-instance,
// solves it with the component worker path (exact or approximate, per the
// solver's routing), and scatters the local rows into immutable full-width
// rows.
func (x *IncrementalSolver) solveComp(sv *Solver, in *Instance, idx map[string]int, c *incComp, floors []float64) (*compResult, approxReport, error) {
	nj, ns := len(c.jobs), len(c.sites)
	sub := &Instance{
		SiteCapacity: make([]float64, ns),
		Demand:       make([][]float64, nj),
	}
	for ls, s := range c.sites {
		sub.SiteCapacity[ls] = in.SiteCapacity[s]
	}
	if in.Weight != nil {
		sub.Weight = make([]float64, nj)
	}
	var subFloors []float64
	if floors != nil {
		subFloors = make([]float64, nj)
	}
	for lj, name := range c.jobs {
		i := idx[name]
		row := make([]float64, ns)
		for ls, s := range c.sites {
			row[ls] = in.Demand[i][s]
		}
		sub.Demand[lj] = row
		if sub.Weight != nil {
			sub.Weight[lj] = in.Weight[i]
		}
		if subFloors != nil {
			subFloors[lj] = floors[i]
		}
	}
	a, rep, err := sv.fillComponent(sub, subFloors)
	if err != nil {
		return nil, rep, err
	}
	res := &compResult{shares: make(map[string][]float64, nj), lastUsed: x.gen}
	for lj, name := range c.jobs {
		row := make([]float64, len(x.caps))
		for ls, s := range c.sites {
			row[s] = a.Share[lj][ls]
		}
		res.shares[name] = row
	}
	return res, rep, nil
}

// remember files c's freshly solved result under weight-sum bits w,
// dropping entries unused for memoAge solves.
func (c *incComp) remember(w, gen uint64) {
	if c.memo == nil {
		c.memo = map[uint64]*compResult{}
	}
	for k, r := range c.memo {
		if gen-r.lastUsed > memoAge {
			delete(c.memo, k)
		}
	}
	c.memo[w] = c.result
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// validateJobData float-scans one job's weight, demand and work rows —
// the per-dirty-job slice of Instance.Validate (lengths are checked
// centrally in Solve).
func validateJobData(in *Instance, j int) error {
	if in.Weight != nil {
		if w := in.Weight[j]; w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: job %d has invalid weight %g", j, w)
		}
	}
	for s, d := range in.Demand[j] {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("core: job %d has invalid demand %g at site %d", j, d, s)
		}
	}
	if in.Work != nil {
		for s, w := range in.Work[j] {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("core: job %d has invalid work %g at site %d", j, w, s)
			}
		}
	}
	return nil
}
