package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// leafPaths returns the sorted set of leaf paths in a decoded JSON
// document, with array indices folded to "[]" so arrays of different
// lengths compare equal.
func leafPaths(v any) []string {
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(prefix+"."+k, e)
			}
		case []any:
			for _, e := range x {
				walk(prefix+"[]", e)
			}
		default:
			set[prefix] = true
		}
	}
	walk("", v)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func readJSON(t *testing.T, path string) any {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(buf, &v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return v
}

// TestModesWriteCommittedSchema runs every JSON mode at smoke size and
// checks its output has exactly the key set of the result file committed
// at the repository root, so the checked-in BENCH_*.json files stay
// valid for the tool that regenerates them.
func TestModesWriteCommittedSchema(t *testing.T) {
	cases := []struct {
		committed string // "" = no committed file (BENCH_solver.json is CI-only)
		args      []string
	}{
		{"BENCH_incremental.json", []string{"-mode", "churn", "-components", "8", "-mutations", "64"}},
		{"BENCH_wal.json", []string{"-mode", "wal", "-jobs", "32", "-sites", "4", "-mutations", "5"}},
		{"BENCH_obs.json", []string{"-mode", "obs", "-components", "8", "-mutations", "32", "-trials", "1"}},
		{"BENCH_policy.json", []string{"-mode", "policybench", "-policies", "amf,drf", "-mutations", "32"}},
		{"BENCH_largegraph.json", []string{"-mode", "largegraph", "-tiers", "200:16:4", "-trials", "1"}},
		{"BENCH_contention.json", []string{"-mode", "contention", "-jobs", "64", "-mutations", "128"}},
		{"BENCH_cluster.json", []string{"-mode", "cluster", "-dur", "200ms"}},
		{"", []string{"-mode", "decompose", "-components", "8", "-trials", "1"}},
	}
	for _, c := range cases {
		t.Run(c.args[1], func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "result.json")
			o, err := parseOptions(append(c.args, "-out", out))
			if err != nil {
				t.Fatal(err)
			}
			if err := modes[o.mode].run(o); err != nil {
				t.Fatal(err)
			}
			got := leafPaths(readJSON(t, out))
			if c.committed == "" {
				if len(got) == 0 {
					t.Fatal("empty result")
				}
				return
			}
			want := leafPaths(readJSON(t, filepath.Join("..", "..", c.committed)))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("key set differs from %s:\n got %v\nwant %v", c.committed, got, want)
			}
		})
	}
}

// TestModeDefaults pins each mode's sizing when no flag overrides it:
// the values its committed results and README figures were recorded at.
func TestModeDefaults(t *testing.T) {
	want := map[string]options{
		"churn":       {components: 64, jobs: 16, sites: 4, mutations: 512},
		"contention":  {components: 8, jobs: 512, sites: 4, mutations: 4096, zipf: 1.1, hotThreshold: 0.5},
		"policybench": {components: 16, jobs: 4, sites: 3, mutations: 256},
		"obs":         {components: 64, jobs: 16, sites: 4, mutations: 512, trials: 3},
		"wal":         {mutators: 8, jobs: 256, sites: 16, mutations: 100, window: time.Millisecond},
		"cluster": {replicas: 2, readers: 4, components: 16, jobs: 4, sites: 3,
			dur: 1500 * time.Millisecond, writeInterval: 2 * time.Millisecond},
		"largegraph": {tiers: "1000:64:16,2000:256:32,4000:512:64,10000:1024:100", epsilon: 0.01, trials: 3},
		"decompose":  {components: 64, jobs: 16, sites: 4, trials: 5},
	}
	if len(want) != len(modes) {
		t.Fatalf("%d modes, %d pinned", len(modes), len(want))
	}
	for name, w := range want {
		got, err := parseOptions([]string{"-mode", name})
		if err != nil {
			t.Fatal(err)
		}
		w.mode = name
		if got != w {
			t.Errorf("-mode %s defaults:\n got %+v\nwant %+v", name, got, w)
		}
	}

	// An explicitly set flag wins over the mode default, zero included.
	got, err := parseOptions([]string{"-mode", "contention", "-zipf", "0", "-jobs", "192"})
	if err != nil {
		t.Fatal(err)
	}
	if got.zipf != 0 || got.jobs != 192 || got.mutations != 4096 {
		t.Fatalf("overrides: %+v", got)
	}
	if _, err := parseOptions([]string{"-mode", "serve"}); err == nil {
		t.Fatal("unknown mode accepted")
	}

	// A count the mode uses must stay positive; one it ignores is free.
	for _, args := range [][]string{
		{"-mode", "decompose", "-trials", "0"},
		{"-mode", "obs", "-trials", "0"},
		{"-mode", "largegraph", "-trials", "-1"},
		{"-mode", "churn", "-mutations", "0"},
		{"-mode", "wal", "-mutators", "0"},
	} {
		if _, err := parseOptions(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, err := parseOptions([]string{"-mode", "churn", "-trials", "0"}); err != nil {
		t.Errorf("churn rejects -trials 0, which it does not read: %v", err)
	}
}
