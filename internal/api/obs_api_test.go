package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// newTracedServer builds the full observability stack: scheduler + traced
// engine + API server sharing one registry and one trace ring.
func newTracedServer(t *testing.T) (*httptest.Server, *span.Recorder, *obs.Registry) {
	t.Helper()
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{4, 4},
		Policy:       policy.AMF,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := span.NewRecorder(32)
	eng, err := serve.New(sc, serve.Config{Metrics: reg, Traces: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	srv := NewEngineServer(eng, reg, []float64{4, 4}, policy.AMF).SetTraces(rec)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, rec, reg
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestTraceHeaderAndCorrelation: a mutation's X-AMF-Trace-Id response
// header names a trace retrievable from GET /v1/traces, with the commit's
// stage spans attached.
func TestTraceHeaderAndCorrelation(t *testing.T) {
	ts, _, _ := newTracedServer(t)

	resp := postJSON(t, ts.URL+"/v1/jobs", `{"id":"a","demand":[2,0]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add job status = %d", resp.StatusCode)
	}
	id := resp.Header.Get(TraceHeader)
	if len(id) != 16 {
		t.Fatalf("trace header = %q, want 16 hex chars", id)
	}

	tr, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var tresp TracesResponse
	if err := json.NewDecoder(tr.Body).Decode(&tresp); err != nil {
		t.Fatal(err)
	}
	if tresp.Capacity != 32 {
		t.Fatalf("capacity = %d, want 32", tresp.Capacity)
	}
	found := false
	for _, trace := range tresp.Traces {
		for _, r := range trace.Requests {
			if string(r) == id {
				found = true
				if len(trace.Spans) == 0 {
					t.Fatalf("correlated trace has no spans: %+v", trace)
				}
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not found in /v1/traces (%d traces)", id, len(tresp.Traces))
	}

	// Reads get a trace ID too, even though they never enter a commit.
	g, err := http.Get(ts.URL + "/v1/allocation")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if got := g.Header.Get(TraceHeader); len(got) != 16 {
		t.Fatalf("read trace header = %q", got)
	}
}

// TestInboundTraceIDHonored: a client-supplied X-AMF-Trace-Id is echoed
// back and stitched into the commit trace.
func TestInboundTraceIDHonored(t *testing.T) {
	ts, rec, _ := newTracedServer(t)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"id":"a","demand":[2,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "cafe0000cafe0000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "cafe0000cafe0000" {
		t.Fatalf("echoed trace ID = %q", got)
	}
	found := false
	for _, trace := range rec.Recent(0) {
		if trace.ID == span.ID("cafe0000cafe0000") {
			found = true
		}
	}
	if !found {
		t.Fatal("inbound trace ID did not name the commit trace")
	}
}

// TestTracesLimitValidation: limit must be a non-negative integer.
func TestTracesLimitValidation(t *testing.T) {
	ts, _, _ := newTracedServer(t)
	for _, bad := range []string{"x", "-1", "1.5"} {
		resp, err := http.Get(ts.URL + "/v1/traces?limit=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/traces?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tresp TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tresp); err != nil {
		t.Fatal(err)
	}
	if len(tresp.Traces) > 1 {
		t.Fatalf("limit=1 returned %d traces", len(tresp.Traces))
	}
}

// TestTracesWithoutRecorder: an untraced server serves an empty list, not
// an error.
func TestTracesWithoutRecorder(t *testing.T) {
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sc, []float64{1}, policy.AMF)
	req := httptest.NewRequest(http.MethodGet, "/v1/traces", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var tresp TracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &tresp); err != nil {
		t.Fatal(err)
	}
	if tresp.Capacity != 0 || len(tresp.Traces) != 0 {
		t.Fatalf("untraced response = %+v, want empty", tresp)
	}
}

// TestPromMetricsEndpoint: GET /metrics serves valid Prometheus text
// exposition with histogram buckets, _count and _sum series, and the
// fairness gauges.
func TestPromMetricsEndpoint(t *testing.T) {
	ts, _, _ := newTracedServer(t)

	resp := postJSON(t, ts.URL+"/v1/jobs", `{"id":"a","demand":[2,0]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add job status = %d", resp.StatusCode)
	}

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	if ct := m.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE amf_engine_commits_total counter",
		"amf_engine_commit_latency_seconds_count",
		"amf_engine_commit_latency_seconds_sum",
		`amf_engine_commit_latency_seconds_bucket`,
		`le="+Inf"`,
		`amf_engine_stage_latency_seconds_bucket{stage="solve"`,
		"amf_fairness_jain_index 1",
		"amf_scheduler_jobs 1",
		`amf_http_requests_total{route="POST /v1/jobs"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, out)
		}
	}
}
