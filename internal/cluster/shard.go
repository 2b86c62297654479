// Package cluster scales the allocator horizontally: a Router hashes
// job components across N engine shards and merges their reads, while
// Replicas tail a shard's write-ahead log over HTTP and serve lock-free
// stale-bounded reads.
//
// Sharding is correct because the solver's only cross-component coupling
// is the Enhanced-AMF equal-share floor, which depends on the global
// weight sum W. Every shard holds the full site-capacity vector, jobs
// are placed so no site is touched by two shards, and the router keeps
// each shard's core.Instance.ExternalWeight at W − W_shard — making each
// shard's solve the exact restriction of the global solve to its
// components. See DESIGN.md §14.
package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// The router and read replicas are api.Backends.
var _ api.Backend = (*Router)(nil)
var _ api.Backend = (*Replica)(nil)

// Shard is the router's view of one engine shard: one mutating method,
// Apply, taking the wal.Mutation the shard logs, plus the read surface the
// router fans out to (snapshot version, traces, metrics, readiness).
// Implemented in-process by EngineShard and over HTTP by HTTPShard.
type Shard interface {
	// Apply applies one mutation on the shard; completed reports whether
	// an OpProgress finished its job. The router sends job mutations,
	// OpExternalWeight broadcasts and OpSetConfig patches.
	Apply(ctx context.Context, m wal.Mutation) (completed bool, err error)
	Shares(ctx context.Context, id string) ([]float64, error)
	// Allocation returns every job's shares together with the shard's
	// snapshot version — one coherent pair, so the router can assemble a
	// cluster-wide version vector from a single fan-out.
	Allocation(ctx context.Context) (map[string][]float64, uint64, error)
	Stats(ctx context.Context) (scheduler.Stats, error)
	Snapshot(ctx context.Context) (scheduler.Snapshot, error)
	Traces(ctx context.Context, limit int) ([]*span.Trace, error)
	// SlowTraces reads the shard's slow-trace retention ring, slowest
	// first (nil when the shard runs without slow retention).
	SlowTraces(ctx context.Context, limit int) ([]*span.Trace, error)
	// Explain derives the shard's allocation explanation (job "" = full
	// dump; the router routes named jobs to the owning shard).
	Explain(ctx context.Context, job string) (*serve.ExplainResult, error)
	// ScrapeMetrics returns the shard's raw Prometheus text exposition —
	// the router's federation input (nil page when unavailable).
	ScrapeMetrics(ctx context.Context) ([]byte, error)
	// RuntimeConfig reports the shard's runtime-tuning document; the
	// router's merged read requires every shard to agree
	// (ErrConfigMismatch), and its Policy must match the router's
	// (ErrPolicyMismatch).
	RuntimeConfig(ctx context.Context) (scheduler.RuntimeConfig, error)
	ReadyErr(ctx context.Context) error
}

// EngineShard adapts an in-process serving engine to the Shard surface —
// the deployment where one amf-server hosts every shard (-cluster-shards)
// and fan-out is a method call.
type EngineShard struct {
	Eng *serve.Engine
	// Rec is the engine's commit-trace ring (serve.Config.Traces); nil
	// serves empty trace merges.
	Rec *span.Recorder
	// Slow is the engine's slow-trace retention ring
	// (serve.Config.SlowTraces); nil serves empty slow reads.
	Slow *span.SlowRecorder
	// Reg is the registry the engine instruments; the router scrapes it
	// for metrics federation. nil contributes an empty page.
	Reg *obs.Registry
}

func (s EngineShard) Apply(ctx context.Context, m wal.Mutation) (bool, error) {
	return s.Eng.Apply(ctx, m)
}

func (s EngineShard) Shares(ctx context.Context, id string) ([]float64, error) {
	return s.Eng.Shares(ctx, id)
}

func (s EngineShard) Allocation(ctx context.Context) (map[string][]float64, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	// One atomic load gives a coherent (shares, version) pair. The rows
	// are the engine's frozen snapshot rows: read-only, never mutated.
	snap := s.Eng.Current()
	return snap.Shares, snap.Version, nil
}

func (s EngineShard) Stats(ctx context.Context) (scheduler.Stats, error) {
	if err := ctx.Err(); err != nil {
		return scheduler.Stats{}, err
	}
	return s.Eng.Stats(), nil
}

func (s EngineShard) Snapshot(ctx context.Context) (scheduler.Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return scheduler.Snapshot{}, err
	}
	return s.Eng.Snapshot(), nil
}

func (s EngineShard) Traces(ctx context.Context, limit int) ([]*span.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.Rec == nil {
		return nil, nil
	}
	return s.Rec.Recent(limit), nil
}

func (s EngineShard) SlowTraces(ctx context.Context, limit int) ([]*span.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Slow.Slowest(limit), nil
}

func (s EngineShard) Explain(ctx context.Context, job string) (*serve.ExplainResult, error) {
	return s.Eng.Explain(ctx, job)
}

func (s EngineShard) ScrapeMetrics(ctx context.Context) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.Reg == nil {
		return nil, nil
	}
	var sb strings.Builder
	if err := s.Reg.WritePrometheus(&sb); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

func (s EngineShard) RuntimeConfig(ctx context.Context) (scheduler.RuntimeConfig, error) {
	return s.Eng.RuntimeConfig(ctx)
}

func (s EngineShard) ReadyErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.Eng.ReadyErr()
}

// HTTPShard adapts a remote shard server (cmd/amf-server) to the Shard
// surface via the typed API client — the cmd/amf-router deployment.
type HTTPShard struct {
	Client *api.Client
}

// Apply sends the mutation to the shard's matching API route.
func (s HTTPShard) Apply(ctx context.Context, m wal.Mutation) (bool, error) {
	var err error
	switch m.Op {
	case wal.OpAddJob:
		err = s.Client.AddJob(ctx, api.AddJobRequest{ID: m.ID, Weight: m.Weight, Queue: m.Queue, Demand: m.Demand, Work: m.Work})
	case wal.OpAddJobs:
		reqs := make([]api.AddJobRequest, len(m.Jobs))
		for i, sp := range m.Jobs {
			reqs[i] = api.AddJobRequest{ID: sp.ID, Weight: sp.Weight, Queue: sp.Queue, Demand: sp.Demand, Work: sp.Work}
		}
		_, err = s.Client.AddJobs(ctx, reqs)
	case wal.OpAddQueue:
		err = s.Client.AddQueue(ctx, m.ID, m.Weight)
	case wal.OpRemoveJob:
		err = s.Client.RemoveJob(ctx, m.ID)
	case wal.OpProgress:
		return s.Client.ReportProgress(ctx, m.ID, m.Done)
	case wal.OpWeight:
		err = s.Client.UpdateWeight(ctx, m.ID, m.Weight)
	case wal.OpExternalWeight:
		err = s.Client.SetExternalWeight(ctx, m.Weight)
	case wal.OpSetPolicy:
		_, err = s.Client.SetConfig(ctx, api.ConfigPatchRequest{Policy: &m.Policy})
	case wal.OpSetConfig:
		if m.Config == nil {
			return false, wal.ErrNoConfig
		}
		_, err = s.Client.SetConfig(ctx, api.NewConfigPatchRequest(*m.Config))
	case wal.OpRestore:
		if m.State == nil {
			return false, wal.ErrNoState
		}
		err = s.Client.RestoreSnapshot(ctx, *m.State)
	default:
		err = fmt.Errorf("cluster: unknown mutation op %q", m.Op)
	}
	return false, err
}

func (s HTTPShard) Shares(ctx context.Context, id string) ([]float64, error) {
	resp, err := s.Client.Shares(ctx, id)
	if err != nil {
		return nil, err
	}
	return resp.Shares, nil
}

func (s HTTPShard) Allocation(ctx context.Context) (map[string][]float64, uint64, error) {
	resp, err := s.Client.Allocation(ctx)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string][]float64, len(resp.Jobs))
	for id, sh := range resp.Jobs {
		out[id] = sh.Shares
	}
	return out, resp.Version, nil
}

func (s HTTPShard) Stats(ctx context.Context) (scheduler.Stats, error) {
	resp, err := s.Client.Stats(ctx)
	if err != nil {
		return scheduler.Stats{}, err
	}
	return scheduler.Stats{
		Solves: resp.Solves, Skipped: resp.Skipped,
		Jobs: resp.Jobs, Completed: resp.Completed,
		LastSolve:            time.Duration(resp.LastSolveSeconds * float64(time.Second)),
		TotalSolveTime:       time.Duration(resp.TotalSolveSeconds * float64(time.Second)),
		LastComponents:       resp.LastComponents,
		LastLargestComponent: resp.LargestComponent,
		LastSpeedup:          resp.LastSpeedup,
		LastReused:           resp.LastReused,
		LastResolved:         resp.LastResolved,
		CacheHits:            resp.CacheHits,
		CacheMisses:          resp.CacheMisses,
		GlobalInvalidations:  resp.GlobalInvalidations,
		LastApproxComponents: resp.ApproxComponents,
		LastApproxErrorBound: resp.ApproxErrorBound,
	}, nil
}

func (s HTTPShard) Snapshot(ctx context.Context) (scheduler.Snapshot, error) {
	return s.Client.Snapshot(ctx)
}

func (s HTTPShard) Traces(ctx context.Context, limit int) ([]*span.Trace, error) {
	resp, err := s.Client.Traces(ctx, limit)
	if err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

func (s HTTPShard) SlowTraces(ctx context.Context, limit int) ([]*span.Trace, error) {
	resp, err := s.Client.SlowTraces(ctx, limit)
	if err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

func (s HTTPShard) Explain(ctx context.Context, job string) (*serve.ExplainResult, error) {
	resp, err := s.Client.Explain(ctx, job)
	if err != nil {
		return nil, err
	}
	ex := &core.Explanation{
		Scale: resp.Scale, Tol: resp.Tol, SatTol: resp.SatTol,
		Jobs: resp.Jobs, Sites: resp.Sites,
	}
	if resp.Job != nil {
		// A filtered read carries only the requested row.
		ex.Jobs = []core.JobExplanation{*resp.Job}
	}
	return &serve.ExplainResult{
		Version: resp.Version, Policy: resp.Policy, Shard: resp.Shard,
		Explanation: ex,
	}, nil
}

func (s HTTPShard) ScrapeMetrics(ctx context.Context) ([]byte, error) {
	return s.Client.ScrapeMetrics(ctx)
}

func (s HTTPShard) RuntimeConfig(ctx context.Context) (scheduler.RuntimeConfig, error) {
	resp, err := s.Client.Config(ctx)
	if err != nil {
		return scheduler.RuntimeConfig{}, err
	}
	return resp.RuntimeConfig(), nil
}

func (s HTTPShard) ReadyErr(ctx context.Context) error {
	return s.Client.Readyz(ctx)
}
