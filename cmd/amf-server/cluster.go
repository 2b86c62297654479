package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// swapHandler lets the listener come up before recovery finishes: it
// serves a boot surface (healthz 200, everything else 503 with the
// stable "unavailable" code) until Swap installs the real handler.
// Routers and load balancers polling GET /v1/readyz therefore see the
// process as live-but-unready for the whole WAL replay, exactly like a
// replica that has not caught up.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func newSwapHandler() *swapHandler {
	s := &swapHandler{}
	var boot http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"error":"recovering: write-ahead log replay in progress","code":%q,"status":"unready"}`+"\n",
			api.CodeUnavailable)
	})
	s.h.Store(&boot)
	return s
}

func (s *swapHandler) Swap(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// serverConfig is the subset of flags the cluster/replica modes consume.
type serverConfig struct {
	listen       string
	shipAddr     string
	dataDir      string
	batchMax     int
	batchWindow  time.Duration
	compactMB    int64
	compactIval  time.Duration
	traceBuf     int
	slowTraceBuf int
	slowTraceWin time.Duration
	slowCommit   time.Duration
	interval     time.Duration
	// Approximate water-filling knobs, passed to every shard's solver.
	// Replicas ignore them: a replica replays the primary's WAL and serves
	// reads, so its allocation must track the primary byte-for-byte.
	approxEps    float64
	approxThresh int
	// Phase-reconciliation boot knobs (PATCH /v1/config retunes them at
	// runtime). Replicas inherit whatever the primary's WAL dictates.
	phase scheduler.PhaseConfig
}

// shardParts bundles one assembled engine with the hooks its callers
// need: the scheduler (for -state snapshots), its WAL (for shipping),
// its trace rings and the registry it instruments (served on /metrics,
// and scraped by the cluster router's metrics federation).
type shardParts struct {
	sc     *scheduler.Scheduler
	eng    *serve.Engine
	log    *wal.Log
	traces *span.Recorder
	slow   *span.SlowRecorder
	reg    *obs.Registry
}

// buildShardEngine assembles one engine: scheduler, optional -state
// snapshot load, optional WAL replay from dir (recording the wal.*
// recovery gauges), tracing. Single mode and every cluster shard run
// this same stack; cluster mode passes state "".
func buildShardEngine(logger *slog.Logger, caps []float64, p policy.Policy, dir, state string, cfg serverConfig) (shardParts, error) {
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity:    caps,
		Policy:          p,
		ApproxEpsilon:   cfg.approxEps,
		ApproxThreshold: cfg.approxThresh,
		Phase:           cfg.phase,
	})
	if err != nil {
		return shardParts{}, err
	}
	if state != "" {
		if err := loadState(logger, sc, state); err != nil {
			return shardParts{}, fmt.Errorf("loading state: %w", err)
		}
	}
	reg := obs.NewRegistry()
	var logHandle *wal.Log
	if dir != "" {
		l, recovery, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return shardParts{}, fmt.Errorf("opening %s: %w", dir, err)
		}
		st, err := recovery.Replay(sc)
		if err != nil {
			return shardParts{}, fmt.Errorf("recovering %s: %w", dir, err)
		}
		reg.Gauge("wal.replayed_batches").Set(float64(st.Batches))
		reg.Gauge("wal.replayed_mutations").Set(float64(st.Mutations))
		reg.Gauge("wal.replay_failures").Set(float64(st.Failed))
		reg.Gauge("wal.skipped_records").Set(float64(recovery.SkippedRecords))
		reg.Gauge("wal.skipped_states").Set(float64(recovery.SkippedStates))
		logger.Info("recovered from write-ahead log",
			"dir", dir,
			"jobs", sc.Stats().Jobs,
			"snapshot", st.Restored,
			"batches", st.Batches,
			"mutations", st.Mutations,
			"torn_records_skipped", recovery.SkippedRecords)
		logHandle = l
	}
	var traces *span.Recorder
	if cfg.traceBuf > 0 {
		traces = span.NewRecorder(cfg.traceBuf)
	}
	var slow *span.SlowRecorder
	if cfg.slowTraceBuf > 0 {
		slow = span.NewSlowRecorder(cfg.slowTraceBuf, cfg.slowTraceWin)
	}
	eng, err := serve.New(sc, serve.Config{
		MaxBatch:        cfg.batchMax,
		BatchWindow:     cfg.batchWindow,
		Metrics:         reg,
		Log:             logHandle,
		CompactBytes:    cfg.compactMB << 20,
		CompactInterval: cfg.compactIval,
		Traces:          traces,
		SlowTraces:      slow,
		Logger:          logger,
		SlowCommit:      cfg.slowCommit,
	})
	if err != nil {
		return shardParts{}, err
	}
	return shardParts{sc: sc, eng: eng, log: logHandle, traces: traces, slow: slow, reg: reg}, nil
}

// runCluster hosts n engine shards in one process behind an in-process
// router: the tentpole deployment of -cluster-shards. Each shard gets
// its own WAL directory (<data-dir>/shard-<i>) and, with -ship-addr,
// its own replication stream at /wal/shard-<i>.
func runCluster(logger *slog.Logger, caps []float64, p policy.Policy, n int, cfg serverConfig) (http.Handler, func(), error) {
	shards := make([]cluster.Shard, n)
	engines := make([]*serve.Engine, n)
	logs := map[string]*wal.Log{}
	for i := 0; i < n; i++ {
		dir := ""
		if cfg.dataDir != "" {
			dir = filepath.Join(cfg.dataDir, fmt.Sprintf("shard-%d", i))
		}
		parts, err := buildShardEngine(logger, caps, p, dir, "", cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		engines[i] = parts.eng
		shards[i] = cluster.EngineShard{Eng: parts.eng, Rec: parts.traces, Slow: parts.slow, Reg: parts.reg}
		if parts.log != nil {
			logs[fmt.Sprintf("/wal/shard-%d", i)] = parts.log
		}
	}
	router, err := cluster.NewRouter(shards, p)
	if err != nil {
		return nil, nil, err
	}
	// Rebuild the routing ledger from whatever the shards replayed — a
	// restart resumes routing (and Enhanced floors) where it left off.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := router.SyncFromShards(ctx); err != nil {
		return nil, nil, fmt.Errorf("syncing router: %w", err)
	}
	st := router.RouterStats()
	logger.Info("cluster assembled", "shards", n, "jobs", st.Jobs,
		"owned_sites", st.OwnedSites, "weight_sum", st.WeightSum)

	if cfg.shipAddr != "" && len(logs) > 0 {
		go serveShip(logger, cfg.shipAddr, logs)
	}
	stop := func() {
		for _, eng := range engines {
			_ = eng.Close()
		}
	}
	return cluster.NewHandler(router, obs.NewRegistry(), caps, p), stop, nil
}

// runReplica tails a primary's WAL stream (-replica-of) and serves the
// read-only API; /v1/readyz is 503 until the first catch-up.
func runReplica(logger *slog.Logger, caps []float64, p policy.Policy, source string, cfg serverConfig) (http.Handler, func(), error) {
	reg := obs.NewRegistry()
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Source:       &wal.ShipClient{Base: source},
		SiteCapacity: caps,
		Policy:       p,
		Interval:     cfg.interval,
		Metrics:      reg,
		TraceBuffer:  cfg.traceBuf,
	})
	if err != nil {
		return nil, nil, err
	}
	logger.Info("replica tailing", "source", source, "interval", cfg.interval)
	srv := api.NewBackendServer(rep, reg, caps, p).SetTraces(rep.Traces())
	return srv.Handler(), func() { _ = rep.Close() }, nil
}

// serveShip mounts WAL replication streams on their own listener, so
// follower traffic never contends with the client API port.
func serveShip(logger *slog.Logger, addr string, logs map[string]*wal.Log) {
	mux := http.NewServeMux()
	for path, l := range logs {
		mux.Handle("GET "+path, wal.NewShipHandler(l))
	}
	logger.Info("wal shipping", "addr", addr, "streams", len(logs))
	hs := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := hs.ListenAndServe(); err != nil {
		logger.Error("ship listener failed", "addr", addr, "err", err.Error())
	}
}
