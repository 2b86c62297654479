package scheduler

// Hot/cold component classification for Doppel-style phase reconciliation
// (Narula et al., OSDI 2014, via ddtxn). Under zipf-skewed churn a few
// giant popular components are dirtied by almost every commit — exactly
// the components whose solves dominate commit latency — so the
// incremental solver's cache degenerates to a miss per commit. The
// classifier watches the incremental solver's per-component telemetry
// (mutation-hit counts over a sliding window of solves, plus a solve-time
// EWMA) and marks the top components hot. The serving engine then
// accumulates commutative mutations (ReportProgress, UpdateWeight)
// targeting hot components in delta buffers instead of dirtying them, and
// reconciles each hot component's deltas into one merged mutation — and
// one solve — per phase boundary. Cold components keep the exact ordered
// incremental path.
//
// The scheduler owns only the knobs (PhaseConfig), the classifier, and
// the merged-mutation application (ApplyMerged); buffering and phase
// boundaries live in internal/serve's committer, which is single-threaded
// — the degenerate single-mutator form of Doppel's split per-core
// buffers, valid precisely because the buffered operations commute.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
)

// PhaseConfig tunes phase reconciliation. The zero value disables it.
// The JSON form is both the /v1/config wire shape and the snapshot
// persistence shape.
type PhaseConfig struct {
	// HotThreshold is the fraction of recent solves that must have been
	// dirtied by a component for it to classify hot, in (0, 1]. Zero
	// disables phase reconciliation entirely.
	HotThreshold float64 `json:"hot_threshold,omitempty"`
	// MaxBatches is the phase length in commit batches: the committer
	// reconciles all buffered deltas after this many batches carrying
	// buffered mutations (default 8).
	MaxBatches int `json:"max_batches,omitempty"`
	// MaxIntervalMS bounds the wall-clock age of a buffered delta: a
	// phase boundary fires this many milliseconds after the first
	// unreconciled delta even if the batch quota has not been reached
	// (default 10ms). Whichever of MaxBatches/MaxIntervalMS trips first
	// ends the phase.
	MaxIntervalMS int `json:"max_interval_ms,omitempty"`
	// Window is the classifier's sliding window length in solves
	// (default 32).
	Window int `json:"window,omitempty"`
}

// Enabled reports whether phase reconciliation is armed at all.
func (p PhaseConfig) Enabled() bool { return p.HotThreshold > 0 }

// EffectiveMaxBatches, EffectiveMaxInterval and EffectiveWindow apply the
// documented defaults to unset knobs.
func (p PhaseConfig) EffectiveMaxBatches() int {
	if p.MaxBatches > 0 {
		return p.MaxBatches
	}
	return 8
}

func (p PhaseConfig) EffectiveMaxInterval() time.Duration {
	if p.MaxIntervalMS > 0 {
		return time.Duration(p.MaxIntervalMS) * time.Millisecond
	}
	return 10 * time.Millisecond
}

func (p PhaseConfig) EffectiveWindow() int {
	if p.Window > 0 {
		return p.Window
	}
	return 32
}

// Validate checks the knobs against their documented ranges — the same
// check scheduler.New and SetPhaseConfig run; exported so flag parsers
// can fail fast before constructing anything.
func (p PhaseConfig) Validate() error { return p.validate() }

func (p PhaseConfig) validate() error {
	if math.IsNaN(p.HotThreshold) || math.IsInf(p.HotThreshold, 0) || p.HotThreshold < 0 || p.HotThreshold > 1 {
		return fmt.Errorf("scheduler: hot threshold must be a fraction in [0, 1], got %g", p.HotThreshold)
	}
	if p.MaxBatches < 0 {
		return fmt.Errorf("scheduler: max batches must be non-negative, got %d", p.MaxBatches)
	}
	if p.MaxIntervalMS < 0 {
		return fmt.Errorf("scheduler: max interval must be non-negative, got %dms", p.MaxIntervalMS)
	}
	if p.Window < 0 {
		return fmt.Errorf("scheduler: classifier window must be non-negative, got %d", p.Window)
	}
	return nil
}

// SetPhaseConfig installs phase-reconciliation knobs at runtime. The
// scheduler side is inert — it only (re)arms the classifier; the serving
// engine re-reads the config on its committer loop and adjusts buffering.
func (sc *Scheduler) SetPhaseConfig(p PhaseConfig) error {
	if err := p.validate(); err != nil {
		return err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.setPhaseLocked(p)
	return nil
}

func (sc *Scheduler) setPhaseLocked(p PhaseConfig) {
	if sc.cfg.Phase == p {
		return
	}
	sc.cfg.Phase = p
	// Window or enablement changed: restart classification from scratch
	// rather than reinterpreting counts accumulated under the old window.
	sc.resetHotLocked()
}

// PhaseConfig reports the currently installed phase-reconciliation knobs.
func (sc *Scheduler) PhaseConfig() PhaseConfig {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.cfg.Phase
}

// PolicyCapabilities reports the active policy's declared capabilities —
// the serving engine gates delta buffering on Commutative.
func (sc *Scheduler) PolicyCapabilities() policy.Capabilities {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.cfg.Policy.Capabilities()
}

// HotSet is the classifier's immutable output: the jobs and sites owned
// by currently-hot components, keyed by the component's stable identity
// (its lexicographically smallest member job name). A new HotSet is built
// whenever classification changes; consumers must treat it as read-only.
// Nil means nothing is hot.
type HotSet struct {
	// Keys lists the hot component keys, sorted.
	Keys []string
	// Jobs maps a member job ID to its hot component's key.
	Jobs map[string]string
	// Sites maps a site index to the hot component that owns it.
	Sites map[int]string
	// EWMA is the per-component solve-time EWMA that contributed to the
	// classification (telemetry; exported via engine gauges).
	EWMA map[string]time.Duration
}

// Has reports whether the component key is hot in this snapshot. Safe on
// a nil receiver (nothing is hot).
func (hs *HotSet) Has(key string) bool {
	if hs == nil {
		return false
	}
	_, ok := hs.EWMA[key]
	return ok
}

// HotSet returns the current classification snapshot (nil when phase
// reconciliation is disabled or nothing classifies hot).
func (sc *Scheduler) HotSet() *HotSet {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.hotSet
}

// hotTracker accumulates per-component mutation hits over a sliding
// window of solves, plus a solve-time EWMA.
type hotTracker struct {
	window int
	// ring holds the per-solve touched component keys. It grows with the
	// solves seen until it reaches window entries, so a huge configured
	// window costs memory only as it fills; pos is then the oldest entry.
	ring [][]string
	pos  int
	hits map[string]int
	ewma map[string]time.Duration
}

func newHotTracker(window int) *hotTracker {
	return &hotTracker{
		window: window,
		hits:   map[string]int{},
		ewma:   map[string]time.Duration{},
	}
}

// push records one solve's touched component keys, evicting the oldest
// window entry.
func (t *hotTracker) push(touched []string) {
	if len(t.ring) < t.window {
		t.ring = append(t.ring, touched)
	} else {
		for _, k := range t.ring[t.pos] {
			if t.hits[k]--; t.hits[k] <= 0 {
				delete(t.hits, k)
				delete(t.ewma, k) // fully cold: drop its EWMA too
			}
		}
		t.ring[t.pos] = touched
		t.pos = (t.pos + 1) % t.window
	}
	for _, k := range touched {
		t.hits[k]++
	}
}

// observe folds one actual solve duration into the component's EWMA.
func (t *hotTracker) observe(key string, d time.Duration) {
	if prev, ok := t.ewma[key]; ok {
		t.ewma[key] = (4*prev + d) / 5
	} else {
		t.ewma[key] = d
	}
}

// resetHotLocked drops all classification state.
func (sc *Scheduler) resetHotLocked() {
	sc.hot = nil
	sc.hotSet = nil
}

// recordHotLocked runs after every incremental solve: it feeds the
// classifier with the solve's per-component telemetry and rebuilds the
// hot set when classification or hot membership changed.
func (sc *Scheduler) recordHotLocked() {
	ph := sc.cfg.Phase
	if !ph.Enabled() || sc.inc == nil || !sc.cfg.Policy.Capabilities().Commutative {
		sc.resetHotLocked()
		return
	}
	if sc.hot == nil || sc.hot.window != ph.EffectiveWindow() {
		sc.hot = newHotTracker(ph.EffectiveWindow())
		sc.hotSet = nil
	}
	t := sc.hot
	var touched []string
	sc.inc.VisitComponents(func(cs core.CompStat) {
		if cs.Touched {
			touched = append(touched, cs.Key)
		}
		if cs.Solved {
			t.observe(cs.Key, cs.LastSolve)
		}
	})
	t.push(touched)

	// Classify: hot iff the component was mutation-dirtied in at least
	// HotThreshold of the windowed solves.
	var hotKeys []string
	for k, n := range t.hits {
		if float64(n) >= ph.HotThreshold*float64(len(t.ring)) {
			hotKeys = append(hotKeys, k)
		}
	}
	if len(hotKeys) == 0 {
		sc.hotSet = nil
		return
	}
	sort.Strings(hotKeys)
	// Rebuild the snapshot. Membership of a hot component can only change
	// through a solve (every membership-changing mutation dirties it), so
	// rebuilding here — after each solve — is always fresh.
	hs := &HotSet{
		Keys:  hotKeys,
		Jobs:  map[string]string{},
		Sites: map[int]string{},
		EWMA:  make(map[string]time.Duration, len(hotKeys)),
	}
	want := make(map[string]bool, len(hotKeys))
	for _, k := range hotKeys {
		want[k] = true
		hs.EWMA[k] = t.ewma[k]
	}
	sc.inc.VisitComponents(func(cs core.CompStat) {
		if !want[cs.Key] {
			return
		}
		for _, id := range cs.Jobs {
			hs.Jobs[id] = cs.Key
		}
		for _, s := range cs.Sites {
			hs.Sites[s] = cs.Key
		}
	})
	sc.hotSet = hs
}

// JobLive reports whether the job currently exists — the serving engine's
// pre-buffer liveness check for commutative mutations.
func (sc *Scheduler) JobLive(id string) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	_, ok := sc.jobs[id]
	return ok
}

// RemainingCopy returns a copy of the job's outstanding work per site —
// the serving engine seeds its projected-completion tracking from it
// before buffering progress reports.
func (sc *Scheduler) RemainingCopy(id string) ([]float64, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	j, ok := sc.jobs[id]
	if !ok {
		return nil, false
	}
	return append([]float64(nil), j.Remaining...), true
}

// MergedDelta is the reconciled accumulation of the commutative mutations
// buffered against one hot component: summed progress rows and
// last-writer weights. Applying it is equivalent to applying the buffered
// mutations in their original order — progress subtraction is commutative
// and weight updates are last-write-wins.
type MergedDelta struct {
	// Progress maps job ID -> summed done vector.
	Progress map[string][]float64
	// Weights maps job ID -> final (last submitted) weight.
	Weights map[string]float64
}

// ApplyMerged applies one reconciled delta under a single lock
// acquisition: the phase boundary's "one merged mutation" per hot
// component. Jobs that disappeared since buffering are skipped (the
// engine forces a reconcile before any removal, so this is defensive).
// It returns the IDs of jobs the merged progress completed, sorted.
func (sc *Scheduler) ApplyMerged(d MergedDelta) (completed []string, err error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sites := sc.NumSites()
	for id, done := range d.Progress {
		if err := validateProgress(done, sites); err != nil {
			return nil, fmt.Errorf("merged progress for %q: %w", id, err)
		}
	}
	for id, w := range d.Weights {
		j, ok := sc.jobs[id]
		if !ok {
			continue
		}
		sc.setWeightLocked(id, j, w)
	}
	for id, done := range d.Progress {
		j, ok := sc.jobs[id]
		if !ok {
			continue
		}
		if sc.progressLocked(id, j, done) {
			completed = append(completed, id)
		}
	}
	sort.Strings(completed)
	return completed, nil
}
