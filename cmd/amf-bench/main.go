// Command amf-bench regenerates the evaluation: every table and figure of
// the paper's experiment section (reconstructed as experiments E1-E10, see
// DESIGN.md).
//
// Usage:
//
//	amf-bench                 # run the full suite
//	amf-bench -run E1,E5      # run selected experiments
//	amf-bench -quick          # reduced sizes (smoke test)
//	amf-bench -seed 7         # different workload seed
//	amf-bench -list           # list experiment IDs and titles
//
// -mode selects one systems benchmark instead. Every mode reads the same
// flag set; a flag left unset takes the mode's own default (see modes),
// and -out names the machine-readable JSON result file:
//
//	amf-bench -mode churn                       # incremental vs full re-solve per commit
//	amf-bench -mode churn -zipf 1.2 -out BENCH_incremental.json
//	amf-bench -mode contention                  # ordered vs phase-reconciled commits under zipf contention
//	amf-bench -mode policybench -policies amf,drf
//	amf-bench -mode obs -cpuprofile obs.pprof   # metrics+tracing overhead and span coverage
//	amf-bench -mode wal -mutators 16            # WAL vs in-memory acknowledged latency
//	amf-bench -mode cluster -replicas 2         # read scaling with WAL-shipped replicas
//	amf-bench -mode largegraph -tiers 200:16:4,400:32:8
//	amf-bench -mode decompose -out BENCH_solver.json
//
// The paper-experiment output is the same Render() text the root-level
// benchmarks produce, so `go test -bench` and this tool can never drift
// apart.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// options is the one flag set every mode reads.
type options struct {
	mode string

	// Paper experiments (no -mode).
	run    string
	quick  bool
	list   bool
	format string

	// Shared by the modes; -out and -seed also by the experiments.
	out        string
	seed       uint64
	components int
	jobs       int
	sites      int
	mutations  int
	trials     int
	zipf       float64
	mutators   int
	readers    int
	batch      int
	window     time.Duration
	dur        time.Duration

	// Mode-specific.
	replicas      int
	writeInterval time.Duration
	tiers         string
	epsilon       float64
	policies      string
	hotThreshold  float64
	dir           string
	cpuprofile    string
}

// benchMode is one -mode benchmark: the sizing it runs when no flag
// overrides it, and its runner.
type benchMode struct {
	defaults options
	run      func(options) error
}

// modes maps each -mode name to its defaults and runner.
var modes = map[string]benchMode{
	"churn":       {options{components: 64, jobs: 16, sites: 4, mutations: 512}, runChurn},
	"contention":  {options{components: 8, jobs: 512, sites: 4, mutations: 4096, zipf: 1.1, hotThreshold: 0.5}, runContention},
	"policybench": {options{components: 16, jobs: 4, sites: 3, mutations: 256}, runPolicyBench},
	"obs":         {options{components: 64, jobs: 16, sites: 4, mutations: 512, trials: 3}, runObsBench},
	"wal":         {options{mutators: 8, jobs: 256, sites: 16, mutations: 100, window: time.Millisecond}, runWALBench},
	"cluster": {options{replicas: 2, readers: 4, components: 16, jobs: 4, sites: 3,
		dur: 1500 * time.Millisecond, writeInterval: 2 * time.Millisecond}, runClusterBench},
	"largegraph": {options{tiers: defaultLargegraphTiers, epsilon: 0.01, trials: 3}, runLargegraph},
	"decompose":  {options{components: 64, jobs: 16, sites: 4, trials: 5}, runDecompose},
}

// bind registers every flag on fs, each defaulting to o's current value.
func (o *options) bind(fs *flag.FlagSet) {
	names := make([]string, 0, len(modes))
	for name := range modes {
		names = append(names, name)
	}
	sort.Strings(names)
	fs.StringVar(&o.mode, "mode", o.mode, "run one benchmark instead of the paper experiments: "+strings.Join(names, ", "))

	fs.StringVar(&o.run, "run", o.run, "comma-separated experiment IDs (default: all)")
	fs.BoolVar(&o.quick, "quick", o.quick, "reduced experiment sizes and trial counts")
	fs.BoolVar(&o.list, "list", o.list, "list experiments and exit")
	fs.StringVar(&o.format, "format", o.format, "experiment output format: text or md")

	fs.StringVar(&o.out, "out", o.out, "with -mode: write the JSON result to this file; without: also write each experiment's report into this directory")
	fs.Uint64Var(&o.seed, "seed", o.seed, "workload seed (experiments and largegraph: 0 = 2019)")
	fs.IntVar(&o.components, "components", o.components, "independent components in the generated instance")
	fs.IntVar(&o.jobs, "jobs", o.jobs, "jobs per component (contention: total, zipf-split; wal: preloaded)")
	fs.IntVar(&o.sites, "sites", o.sites, "sites per component (wal: total)")
	fs.IntVar(&o.mutations, "mutations", o.mutations, "mutations replayed per configuration (wal: per mutator; cluster: fixed 4096-op writer stream)")
	fs.IntVar(&o.trials, "trials", o.trials, "timed repetitions, median or best kept (obs: alternating reps; largegraph: approx solves per tier; decompose: solves per path)")
	fs.Float64Var(&o.zipf, "zipf", o.zipf, "Zipf skew of component popularity: hit probability ∝ rank^(-s), 0 = uniform (contention: also component sizes; obs: always uniform)")
	fs.IntVar(&o.mutators, "mutators", o.mutators, "concurrent mutator goroutines (wal)")
	fs.IntVar(&o.readers, "readers", o.readers, "concurrent HTTP readers per endpoint (cluster)")
	fs.IntVar(&o.batch, "batch", o.batch, "engine MaxBatch (wal; 0 = mutator count)")
	fs.DurationVar(&o.window, "window", o.window, "engine BatchWindow (wal)")
	fs.DurationVar(&o.dur, "dur", o.dur, "read measurement duration per endpoint (cluster)")

	fs.IntVar(&o.replicas, "replicas", o.replicas, "read replicas in the scaled configuration (cluster)")
	fs.DurationVar(&o.writeInterval, "write-interval", o.writeInterval, "pause between sustained writer mutations (cluster)")
	fs.StringVar(&o.tiers, "tiers", o.tiers, "jobs:sites:degree triples, comma separated (largegraph)")
	fs.Float64Var(&o.epsilon, "epsilon", o.epsilon, "approximation deviation budget as a fraction of instance scale (largegraph)")
	fs.StringVar(&o.policies, "policies", o.policies, "comma-separated policy subset, default every registered policy (policybench)")
	fs.Float64Var(&o.hotThreshold, "hot-threshold", o.hotThreshold, "phase classifier hot threshold for the phase-reconciled pass (contention)")
	fs.StringVar(&o.dir, "dir", o.dir, "WAL directory for the durable pass, default a fresh temp dir (wal)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", o.cpuprofile, "write a CPU profile of the last instrumented replay's timed ops to this file (obs)")
}

// parseOptions parses args over the defaults of the mode they select.
// A first, silent pass only finds -mode; the second parses over that
// mode's defaults (the paper experiments' without -mode), so a flag the
// command line leaves unset keeps the mode's own value and -h lists it.
func parseOptions(args []string) (options, error) {
	o := options{format: "text"}
	fs := flag.NewFlagSet("amf-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.bind(fs)
	_ = fs.Parse(args) // any error resurfaces, reported, in the second pass
	what := "the paper experiments; -mode X -h lists mode X's"
	if o.mode != "" {
		m, ok := modes[o.mode]
		if !ok {
			return o, fmt.Errorf("unknown -mode %q", o.mode)
		}
		what = "-mode " + o.mode
		o = m.defaults
	} else {
		o = options{format: "text"}
	}
	fs = flag.NewFlagSet("amf-bench", flag.ContinueOnError)
	o.bind(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of amf-bench (defaults of %s):\n", what)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// A count the mode uses (its default is positive) must stay
	// positive: zero trials or mutations would time an empty sample set.
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		if n, ok := f.Value.(flag.Getter).Get().(int); ok && n <= 0 && f.DefValue != "0" && err == nil {
			err = fmt.Errorf("-%s must be positive, got %d", f.Name, n)
		}
	})
	return o, err
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err == nil {
		if o.mode != "" {
			err = modes[o.mode].run(o)
		} else {
			err = runExperiments(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amf-bench:", err)
		os.Exit(1)
	}
}

// runExperiments runs the paper experiments selected by -run (all by
// default), printing each report and optionally writing it under -out.
func runExperiments(o options) error {
	if o.list {
		for _, e := range experiments.List() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	opt := experiments.Options{Quick: o.quick, Seed: o.seed}
	ids := experiments.IDs()
	if o.run != "" {
		ids = strings.Split(o.run, ",")
	}
	for _, id := range ids {
		start := time.Now()
		r, err := experiments.Run(strings.TrimSpace(id), opt)
		if err != nil {
			return err
		}
		var body, ext string
		switch o.format {
		case "md":
			body, ext = r.RenderMarkdown(), "md"
			fmt.Print(body)
		default:
			body, ext = r.Render(), "txt"
			fmt.Print(body)
			fmt.Printf("(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		}
		if o.out != "" {
			if err := os.MkdirAll(o.out, 0o755); err != nil {
				return err
			}
			path := filepath.Join(o.out, strings.ToLower(r.ID)+"."+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
