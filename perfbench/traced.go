package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/span"
)

// tracedRun is the --trace 1 run: an untraced server and then a traced
// one on the same request stream, the trace join, the counter deltas and
// the in-process handler probe, reported as per-layer metrics.
func tracedRun(w *workloadSpec, o options, rep *report, dir string, window time.Duration, maxWrites int) error {
	// Untraced baseline on the same stream, for the tracing overhead.
	base, err := setUp(w, o, filepath.Join(dir, "untraced"), false, maxWrites)
	if err != nil {
		return err
	}
	rep.count(base.warm)
	ops, err := base.src.schedule(w.rate, window)
	if err != nil {
		base.srv.kill()
		return err
	}
	rn0 := (&loader{cl: base.srv.cl}).execute(ops, window)
	base.srv.kill()
	rep.count(rn0)

	s, err := setUp(w, o, filepath.Join(dir, "traced"), true, maxWrites)
	if err != nil {
		return err
	}
	srv := s.srv
	defer srv.kill()
	rep.count(s.warm)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	prom0, err := scrapeProm(srv.hc, srv.addr)
	if err != nil {
		return err
	}
	st0, err := srv.cl.Stats(ctx)
	if err != nil {
		return err
	}
	var cs0, cs1 cluster.RouterStatsResponse
	if w.shards > 1 {
		if err := getJSON(srv, "/v1/cluster/stats", &cs0); err != nil {
			return err
		}
	}
	ops, err = s.src.schedule(w.rate, window)
	if err != nil {
		return err
	}
	runStart := time.Now()
	ld := &loader{cl: srv.cl, traced: true}
	rn := ld.execute(ops, window)
	rep.count(rn)
	s.lg.record(rn)
	prom1, err := scrapeProm(srv.hc, srv.addr)
	if err != nil {
		return err
	}
	st1, err := srv.cl.Stats(ctx)
	if err != nil {
		return err
	}
	if w.shards > 1 {
		if err := getJSON(srv, "/v1/cluster/stats", &cs1); err != nil {
			return err
		}
	}
	tr, err := srv.cl.Traces(ctx, 0)
	if err != nil {
		return err
	}
	snap, alloc, err := barrier(srv.cl)
	if err != nil {
		return err
	}
	caps := s.src.base.SiteCapacity
	if err := checkAllocation(caps, w.policy, snap, alloc, s.lg); err != nil {
		rep.fail("correctness: %v", err)
	}
	hp, err := probeHandlers(caps, w.policy, snap, o.seed)
	if err != nil {
		return fmt.Errorf("handler probe: %w", err)
	}

	// Only the measured run's traces: drop the bulk load and warm-up.
	var forest = tr.Traces[:0]
	for _, t := range tr.Traces {
		if !t.Start.Before(runStart) {
			forest = append(forest, t)
		}
	}
	ts := splitTraces(forest)
	d := prom1.minus(prom0)
	mutations := d.sum("amf_engine_mutations_total")
	commits := d.sum("amf_engine_commits_total")
	lat, _ := rn.classLatencies()
	writes := float64(len(lat[opWrite]))
	stages, details := stageUS(ts.commits)

	// api
	rep.add("api.handler_us.shares", hp.sharesUS, "us", 500)
	rep.add("api.handler_us.allocation", hp.allocationUS, "us", 30)
	rep.add("api.handler_us.write", d.writeHandlerUS(), "us", 0)
	rep.add("api.resp_bytes.allocation", float64(hp.allocationBytes), "bytes", 0)
	rep.add("api.allocs_per_req.allocation", hp.allocationAllocs, "count", 30)
	var readClient []float64
	for i, r := range rn.res {
		if rn.ops[i].Kind == opRead && r.Err == nil {
			readClient = append(readClient, us(r.Done-r.Sent))
		}
	}
	rep.add("api.client_residual_us.read",
		mean(readClient)-d.meanUS("amf_http_request_latency_seconds", `route="GET /v1/jobs/{id}/shares"`), "us", len(readClient))
	residual, joined := joinWrites(rn, ts)
	rep.add("api.client_residual_us.write", residual, "us", joined)

	// serve
	var totals []float64
	for _, t := range ts.commits {
		totals = append(totals, t.Total*1e6)
	}
	rep.add("serve.ack_us.write", mean(totals), "us", len(totals))
	if commits > 0 {
		rep.add("serve.batch_size", mutations/commits, "count", int(commits))
	}
	rep.add("serve.queue_wait_us", stages["queue_wait"], "us", len(ts.commits))
	rep.add("serve.publish_us", stages["publish"], "us", len(ts.commits))
	if w.phase {
		rep.add("serve.phase_fold_ratio", d.sum("amf_engine_phase_buffered_total")/mutations, "ratio", int(mutations))
		if w.scanFrac > 0 {
			rep.add("serve.phase_lag_max", float64(rn.phaseLagMax), "count", len(lat[opScan]))
		}
	} else {
		rep.idle("serve.phase_fold_ratio", "ratio", "phase reconciliation off")
		rep.idle("serve.phase_lag_max", "count", "phase reconciliation off")
	}

	// scheduler
	rep.add("scheduler.apply_us", stages["apply"], "us", len(ts.commits))
	resolved := details["solve.component"]
	rep.add("scheduler.resolved_per_commit", resolved, "count", len(ts.commits))
	rep.add("scheduler.reused_per_commit", reusedPerCommit(ts.commits, prom1), "count", len(ts.commits))
	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	if hits+misses > 0 {
		rep.add("scheduler.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio", int(hits+misses))
	} else {
		rep.idle("scheduler.cache_hit_ratio", "ratio", "no cache lookups")
	}
	if w.policy == "amf-enhanced" {
		rep.add("scheduler.global_invalidations_per_commit",
			float64(st1.GlobalInvalidations-st0.GlobalInvalidations)/commits, "count", int(commits))
	} else {
		rep.idle("scheduler.global_invalidations_per_commit", "count", "policy has no global weight floors")
	}

	// core
	for _, st := range []string{"validate", "partition", "solve", "merge"} {
		rep.add("core."+st+"_us", stages[st], "us", len(ts.commits))
	}
	rep.add("core.largest_component", float64(st1.LargestComponent), "count", 0)

	// wal
	rep.add("wal.encode_us", stages["wal_encode"], "us", len(ts.commits))
	rep.add("wal.append_us", stages["wal_append"], "us", len(ts.commits))
	rep.add("wal.fsync_us", stages["wal_fsync"], "us", len(ts.commits))
	rep.add("wal.fsyncs_per_mutation", d.sum("amf_wal_fsync_latency_seconds_count")/mutations, "count", int(mutations))
	if d.sum("amf_wal_compactions_total") > 0 {
		rep.fail("wal: a compaction ran inside the measured run; bytes_per_mutation would be wrong")
	}
	rep.add("wal.bytes_per_mutation", d.sum("amf_wal_bytes_since_compact")/mutations, "bytes", int(mutations))

	// cluster
	if w.shards > 1 {
		rstages, _ := stageUS(ts.routed)
		rep.add("cluster.route_us", rstages["route"], "us", len(ts.routed))
		rep.add("cluster.shard_commit_us", shardCommitSelfUS(ts.routed), "us", len(ts.routed))
		rep.add("cluster.broadcast_us", rstages["weight_broadcast"], "us", len(ts.routed))
		rep.add("cluster.broadcasts_per_mutation", float64(cs1.Broadcasts-cs0.Broadcasts)/writes, "count", int(writes))
		rep.add("cluster.fanout_us.allocation", d.meanUS("amf_cluster_fanout_latency_seconds", `op="allocation"`), "us",
			int(d.sum("amf_cluster_fanout_latency_seconds_count", `op="allocation"`)))
	} else {
		for _, n := range []string{"cluster.route_us", "cluster.shard_commit_us", "cluster.broadcast_us", "cluster.fanout_us.allocation"} {
			rep.idle(n, "us", "single engine, no router")
		}
		rep.idle("cluster.broadcasts_per_mutation", "count", "single engine, no router")
	}

	// obs
	cov := coverage(ts.commits)
	if len(cov) > 0 {
		lo := cov[0]
		for _, c := range cov {
			lo = min(lo, c)
		}
		rep.add("obs.span_coverage_min", lo, "ratio", len(cov))
		rep.add("obs.span_coverage_p50", median(cov), "ratio", len(cov))
	}
	lat0, _ := rn0.classLatencies()
	if p0, p1 := median(lat0[opWrite]), median(lat[opWrite]); p0 > 0 {
		rep.add("obs.trace_overhead_pct", (p1-p0)/p0*100, "%", len(lat[opWrite]))
	}

	// generator
	rep.lateness(append(rn0.lateness(), rn.lateness()...))
	return nil
}

// reusedPerCommit estimates components spliced without a solve per
// commit: for every commit that solved, the shard's component count (its
// gauge at the end of the run) minus the components it re-solved.
func reusedPerCommit(commits []*span.Trace, p prom) float64 {
	if len(commits) == 0 {
		return 0
	}
	var total float64
	for _, t := range commits {
		solved, resolved := false, 0.0
		for _, s := range t.Spans {
			switch {
			case s.Name == "solve" && !s.Detail:
				solved = true
			case s.Name == "solve.component":
				resolved++
			}
		}
		if !solved {
			continue
		}
		var comps float64
		if t.Shard != "" {
			comps = p.sum("amf_engine_solve_components", `shard="`+t.Shard+`"`)
		} else {
			comps = p.sum("amf_engine_solve_components")
		}
		total += max(comps-resolved, 0)
	}
	return total / float64(len(commits))
}

func getJSON(s *server, path string, out any) error {
	resp, err := s.hc.Get("http://" + s.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
