package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/scheduler"
)

func TestApproxConfigRoundTrip(t *testing.T) {
	c, sc := newTestServer(t)
	ctx := context.Background()

	// Fresh controller: knobs default to disabled (0, 0).
	got, err := c.ApproxConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epsilon != 0 || got.Threshold != 0 {
		t.Fatalf("default knobs %+v, want zero", got)
	}

	if err := c.SetApproxConfig(ctx, 0.02, 5000); err != nil {
		t.Fatal(err)
	}
	got, err = c.ApproxConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epsilon != 0.02 || got.Threshold != 5000 {
		t.Fatalf("knobs after PUT %+v, want {0.02 5000}", got)
	}
	// The scheduler behind the server observed the same values.
	if eps, th := sc.ApproxConfig(); eps != 0.02 || th != 5000 {
		t.Fatalf("scheduler knobs (%g, %d), want (0.02, 5000)", eps, th)
	}
}

func TestApproxConfigValidation(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	if err := c.SetApproxConfig(ctx, -0.01, 100); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative epsilon: got %v, want invalid_argument", err)
	}
	if err := c.SetApproxConfig(ctx, 0.01, -1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative threshold: got %v, want invalid_argument", err)
	}
}

// TestApproxConfigRejectsNonFinite drives the raw HTTP surface: NaN and
// Inf cannot ride JSON numbers, so they must surface as a stable
// invalid_argument decode failure, never a 500 or a silently-zero knob.
func TestApproxConfigRejectsNonFinite(t *testing.T) {
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{1, 1},
		Policy:       policy.AMF,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sc, []float64{1, 1}, policy.AMF)
	for _, body := range []string{
		`{"epsilon": NaN, "threshold": 10}`,
		`{"epsilon": Infinity, "threshold": 10}`,
		`{"epsilon": 1e999, "threshold": 10}`,
	} {
		req := httptest.NewRequest(http.MethodPut, "/v1/solver/approx", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), CodeInvalidArgument) {
			t.Fatalf("body %s: response %s lacks %q", body, rec.Body.String(), CodeInvalidArgument)
		}
	}
	if eps, th := sc.ApproxConfig(); eps != 0 || th != 0 {
		t.Fatalf("rejected requests mutated knobs to (%g, %d)", eps, th)
	}
}
