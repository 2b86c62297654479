package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scheduler"
)

func fptr(v float64) *float64 { return &v }
func iptr(v int) *int         { return &v }
func sptr(v string) *string   { return &v }

// TestRouterConfigFanOut checks that a cluster-wide patch reaches every
// shard and that the router's merged read agrees afterwards.
func TestRouterConfigFanOut(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	patch := scheduler.ConfigPatch{
		ApproxEpsilon:   fptr(0.05),
		ApproxThreshold: iptr(2000),
		HotThreshold:    fptr(0.6),
		Window:          iptr(48),
	}
	if err := r.ApplyConfig(ctx, patch); err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		rc := sc.RuntimeConfig()
		if rc.ApproxEpsilon != 0.05 || rc.ApproxThreshold != 2000 {
			t.Fatalf("shard %d solver knobs %+v", i, rc)
		}
		if rc.Phase.HotThreshold != 0.6 || rc.Phase.Window != 48 {
			t.Fatalf("shard %d phase knobs %+v", i, rc.Phase)
		}
	}
	rc, err := r.RuntimeConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rc.ApproxEpsilon != 0.05 || rc.Phase.HotThreshold != 0.6 {
		t.Fatalf("router merged config %+v", rc)
	}

	// An empty patch is a cluster-wide no-op.
	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{}); err != nil {
		t.Fatal(err)
	}
}

// TestRouterConfigMismatch checks the read path refuses to pick a winner
// when shards have diverged.
func TestRouterConfigMismatch(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.RuntimeConfig(ctx); err != nil {
		t.Fatalf("fresh cluster should agree: %v", err)
	}
	// Diverge one shard out-of-band (operator hitting a shard directly).
	if err := scs[1].SetApproxConfig(0.5, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RuntimeConfig(ctx); !errors.Is(err, cluster.ErrConfigMismatch) {
		t.Fatalf("diverged cluster: err = %v, want ErrConfigMismatch", err)
	}
	// A cluster-wide patch that overwrites the diverged knobs re-converges
	// the cluster; the read works again.
	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{
		ApproxEpsilon: fptr(0.01), ApproxThreshold: iptr(100),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RuntimeConfig(ctx); err != nil {
		t.Fatalf("repatched cluster should agree: %v", err)
	}
}

// TestRouterConfigPolicySwitch flips an AMF cluster to Enhanced-AMF
// through the unified patch and checks the router starts brokering
// global weight sums (the Enhanced-AMF cross-shard protocol).
func TestRouterConfigPolicySwitch(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s0, s1 := splitSites(t, 4)

	if err := r.AddJob(ctx, "a", 2, demandAt(4, s0), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJob(ctx, "b", 4, demandAt(4, s1), nil); err != nil {
		t.Fatal(err)
	}
	// AMF clusters never broadcast external weights.
	if scs[0].ExternalWeight() != 0 || scs[1].ExternalWeight() != 0 {
		t.Fatal("AMF cluster broadcast external weights")
	}

	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{Policy: sptr("amf-enhanced")}); err != nil {
		t.Fatal(err)
	}
	if got := r.PolicyName(); got != "amf-enhanced" {
		t.Fatalf("router policy after switch %q", got)
	}
	// The switch triggers a full weight broadcast: each shard sees the
	// cluster weight sum minus its own local sum.
	if got := scs[0].ExternalWeight(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("shard 0 external weight %g, want 4", got)
	}
	if got := scs[1].ExternalWeight(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("shard 1 external weight %g, want 2", got)
	}
	// And subsequent mutations keep brokering.
	if err := r.UpdateWeight(ctx, "a", 6); err != nil {
		t.Fatal(err)
	}
	if got := scs[1].ExternalWeight(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("shard 1 external weight after reweight %g, want 6", got)
	}
}

// TestRouterConfigMixedPolicyRefusal checks a patch is refused while the
// shards disagree on policy (the same refusal mutations get).
func TestRouterConfigMixedPolicyRefusal(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := scs[1].SetPolicyName("drf"); err != nil {
		t.Fatal(err)
	}
	err = r.ApplyConfig(ctx, scheduler.ConfigPatch{HotThreshold: fptr(0.5)})
	if !errors.Is(err, cluster.ErrPolicyMismatch) {
		t.Fatalf("mixed-policy patch: err = %v, want ErrPolicyMismatch", err)
	}
	// Unknown policies are rejected before touching any shard.
	before := scs[0].RuntimeConfig()
	if err := scs[1].SetPolicyName("amf"); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{Policy: sptr("fifo")}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if scs[0].RuntimeConfig() != before {
		t.Fatal("rejected patch mutated shard 0")
	}
}

// TestRouterConfigOverHTTPShards runs the config fan-out across real API
// servers: the router's ApplyConfig becomes PATCH /v1/config on each
// shard and RuntimeConfig becomes GET /v1/config.
func TestRouterConfigOverHTTPShards(t *testing.T) {
	caps := []float64{1, 1, 1, 1}
	shards := make([]cluster.Shard, 2)
	scs := make([]*scheduler.Scheduler, 2)
	for i := range shards {
		sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.AMF})
		if err != nil {
			t.Fatal(err)
		}
		srv := api.NewServer(sc, caps, policy.AMF)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards[i] = cluster.HTTPShard{Client: api.NewClient(ts.URL, ts.Client())}
		scs[i] = sc
	}
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{
		Policy:        sptr("amf-enhanced"),
		ApproxEpsilon: fptr(0.02),
		HotThreshold:  fptr(0.3),
		MaxBatches:    iptr(4),
	}); err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		rc := sc.RuntimeConfig()
		if rc.Policy != "amf-enhanced" || rc.ApproxEpsilon != 0.02 ||
			rc.Phase.HotThreshold != 0.3 || rc.Phase.MaxBatches != 4 {
			t.Fatalf("shard %d config over HTTP %+v", i, rc)
		}
	}
	rc, err := r.RuntimeConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Policy != "amf-enhanced" || rc.Phase.MaxBatches != 4 {
		t.Fatalf("router merged config over HTTP %+v", rc)
	}
}

// TestRouterDeprecatedPolicyAliasesSwitchEveryShard is the regression for
// a router that kept reporting its boot policy after a runtime switch and
// refused the deprecated aliases. A PATCH through cluster.NewHandler must
// show in every policy read, and PUT /v1/policy and PUT /v1/solver/approx
// must leave every shard exactly where the equivalent PATCH leaves it.
func TestRouterDeprecatedPolicyAliasesSwitchEveryShard(t *testing.T) {
	caps := []float64{1, 1, 1, 1}
	s0, s1 := splitSites(t, len(caps))
	ctx := context.Background()
	newCluster := func() (*api.Client, []*scheduler.Scheduler) {
		shards, scs := newEngineShards(t, 2, caps, policy.EnhancedAMF)
		r, err := cluster.NewRouter(shards, policy.EnhancedAMF)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(cluster.NewHandler(r, nil, caps, policy.EnhancedAMF))
		t.Cleanup(front.Close)
		cl := api.NewClient(front.URL, front.Client())
		if err := cl.AddJob(ctx, api.AddJobRequest{ID: "a", Weight: 2, Demand: demandAt(len(caps), s0)}); err != nil {
			t.Fatal(err)
		}
		if err := cl.AddJob(ctx, api.AddJobRequest{ID: "b", Weight: 4, Demand: demandAt(len(caps), s1)}); err != nil {
			t.Fatal(err)
		}
		return cl, scs
	}
	reportsPolicy := func(cl *api.Client, scs []*scheduler.Scheduler, want string) {
		t.Helper()
		alloc, err := cl.Allocation(ctx)
		if err != nil || alloc.Policy != want {
			t.Fatalf("GET /v1/allocation policy = %q, %v; want %q", alloc.Policy, err, want)
		}
		st, err := cl.Stats(ctx)
		if err != nil || st.Policy != want {
			t.Fatalf("GET /v1/stats policy = %q, %v; want %q", st.Policy, err, want)
		}
		pr, err := cl.Policy(ctx)
		if err != nil || pr.Policy != want {
			t.Fatalf("GET /v1/policy = %q, %v; want %q", pr.Policy, err, want)
		}
		doc, err := cl.Config(ctx)
		if err != nil || doc.Policy != want {
			t.Fatalf("GET /v1/config policy = %q, %v; want %q", doc.Policy, err, want)
		}
		for i, sc := range scs {
			if got := sc.PolicyName(); got != want {
				t.Fatalf("shard %d policy %q, want %q", i, got, want)
			}
		}
	}

	viaAlias, aliasScs := newCluster()
	viaPatch, patchScs := newCluster()
	for _, cl := range []*api.Client{viaAlias, viaPatch} {
		if _, err := cl.SetConfig(ctx, api.ConfigPatchRequest{Policy: sptr("amf")}); err != nil {
			t.Fatal(err)
		}
	}
	reportsPolicy(viaAlias, aliasScs, "amf")

	// Back to Enhanced-AMF, then retune the approximate solver: through
	// the aliases on one cluster, through PATCH on the other.
	if err := viaAlias.SetPolicy(ctx, "amf-enhanced"); err != nil {
		t.Fatalf("PUT /v1/policy through the router: %v", err)
	}
	if err := viaAlias.SetApproxConfig(ctx, 0.02, 100); err != nil {
		t.Fatalf("PUT /v1/solver/approx through the router: %v", err)
	}
	if _, err := viaPatch.SetConfig(ctx, api.ConfigPatchRequest{Policy: sptr("amf-enhanced")}); err != nil {
		t.Fatal(err)
	}
	if _, err := viaPatch.SetConfig(ctx, api.ConfigPatchRequest{
		Solver: &api.SolverPatchSection{ApproxEpsilon: fptr(0.02), ApproxThreshold: iptr(100)},
	}); err != nil {
		t.Fatal(err)
	}
	reportsPolicy(viaAlias, aliasScs, "amf-enhanced")
	reportsPolicy(viaPatch, patchScs, "amf-enhanced")
	for i := range aliasScs {
		a, p := aliasScs[i], patchScs[i]
		if a.RuntimeConfig() != p.RuntimeConfig() {
			t.Fatalf("shard %d config via aliases %+v, via PATCH %+v", i, a.RuntimeConfig(), p.RuntimeConfig())
		}
		if a.ExternalWeight() != p.ExternalWeight() {
			t.Fatalf("shard %d external weight via aliases %g, via PATCH %g", i, a.ExternalWeight(), p.ExternalWeight())
		}
	}
	if rc := aliasScs[0].RuntimeConfig(); rc.ApproxEpsilon != 0.02 || rc.ApproxThreshold != 100 {
		t.Fatalf("approx alias did not reach the shards: %+v", rc)
	}
	got, err := viaAlias.ApproxConfig(ctx)
	if err != nil || got.Epsilon != 0.02 || got.Threshold != 100 {
		t.Fatalf("GET /v1/solver/approx through the router = %+v, %v", got, err)
	}
}

// TestRouterConfigPolicyReadsDuringSwitch reads the router's policy name
// from several goroutines while policy patches roll across the shards:
// the lock-free read must always see one of the two policies (run under
// -race).
func TestRouterConfigPolicyReadsDuringSwitch(t *testing.T) {
	shards, _ := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if name := r.PolicyName(); name != "amf" && name != "amf-enhanced" {
					t.Errorf("policy read %q mid-switch", name)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		name := "amf-enhanced"
		if i%2 == 1 {
			name = "amf"
		}
		if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{Policy: &name}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := r.PolicyName(); got != "amf" {
		t.Fatalf("policy after the last switch %q, want amf", got)
	}
}

// TestRouterStatsApproxTelemetry checks the merged /v1/stats keeps the
// approximate-solver telemetry: components routed through the
// approximate path sum across shards, and the certified error bound is
// the largest any shard reports — over in-process and HTTP shards alike.
func TestRouterStatsApproxTelemetry(t *testing.T) {
	caps := []float64{1, 1, 1, 1}
	s0, s1 := splitSites(t, len(caps))
	httpShards := func() ([]cluster.Shard, []*scheduler.Scheduler) {
		shards := make([]cluster.Shard, 2)
		scs := make([]*scheduler.Scheduler, 2)
		for i := range shards {
			sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.AMF})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(api.NewServer(sc, caps, policy.AMF).Handler())
			t.Cleanup(ts.Close)
			shards[i] = cluster.HTTPShard{Client: api.NewClient(ts.URL, ts.Client())}
			scs[i] = sc
		}
		return shards, scs
	}
	for name, build := range map[string]func() ([]cluster.Shard, []*scheduler.Scheduler){
		"engine": func() ([]cluster.Shard, []*scheduler.Scheduler) {
			return newEngineShards(t, 2, caps, policy.AMF)
		},
		"http": httpShards,
	} {
		t.Run(name, func(t *testing.T) {
			shards, scs := build()
			r, err := cluster.NewRouter(shards, policy.AMF)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{
				ApproxEpsilon: fptr(0.05), ApproxThreshold: iptr(1),
			}); err != nil {
				t.Fatal(err)
			}
			// Three jobs on shard 0's site and five on shard 1's, with
			// unequal demands and weights, so each shard's approximate
			// solve certifies a different nonzero bound.
			for n, site := range map[int]int{3: s0, 5: s1} {
				for j := 0; j < n; j++ {
					d := make([]float64, len(caps))
					d[site] = 0.3 * float64(j+1)
					if err := r.AddJob(ctx, fmt.Sprintf("s%d-%d", site, j), float64(j+1), d, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := r.Allocation(ctx); err != nil {
				t.Fatal(err)
			}
			var wantComps int
			var wantBound float64
			for _, sc := range scs {
				st := sc.Stats()
				wantComps += st.LastApproxComponents
				wantBound = math.Max(wantBound, st.LastApproxErrorBound)
			}
			if wantComps != 2 || wantBound == 0 {
				t.Fatalf("shards report %d approximate components with bound %g, want 2 and nonzero", wantComps, wantBound)
			}
			st := r.Stats()
			if st.LastApproxComponents != wantComps || st.LastApproxErrorBound != wantBound {
				t.Fatalf("router stats approx = (%d, %g), shards (%d, %g)",
					st.LastApproxComponents, st.LastApproxErrorBound, wantComps, wantBound)
			}
		})
	}
}
