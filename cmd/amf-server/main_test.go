package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestClusterRestartExportsWALRecoveryGauges restarts a two-shard
// cluster over one data directory and checks each shard's wal.*
// recovery gauges reach the router's federated /metrics page, as they
// do on a single engine's.
func TestClusterRestartExportsWALRecoveryGauges(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	caps := []float64{4, 4, 4, 4}
	cfg := serverConfig{dataDir: t.TempDir(), batchMax: 16, compactMB: 4}
	do := func(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	h, stop, err := runCluster(logger, caps, policy.AMF, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(h, "POST", "/v1/jobs", `{"id":"etl","demand":[1,0,0,0]}`); rec.Code/100 != 2 {
		stop()
		t.Fatalf("add job: %d %s", rec.Code, rec.Body)
	}
	stop()

	h, stop, err = runCluster(logger, caps, policy.AMF, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if rec := do(h, "GET", "/v1/jobs/etl/shares", ""); rec.Code != http.StatusOK {
		t.Fatalf("job not recovered: %d %s", rec.Code, rec.Body)
	}
	page := do(h, "GET", "/metrics", "").Body.String()
	for _, want := range []string{`amf_wal_replayed_batches{shard="0"}`, `amf_wal_replayed_batches{shard="1"}`} {
		if !strings.Contains(page, want) {
			t.Errorf("federated metrics lack %s", want)
		}
	}
}
