package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// opKind is a request class; each has its own latency distribution.
type opKind uint8

const (
	opWrite opKind = iota // admit, evict, reweight or progress report
	opRead                // GET /v1/jobs/{id}/shares
	opScan                // GET /v1/allocation
)

func (k opKind) String() string {
	return [...]string{"write", "read", "scan"}[k]
}

// op is one generated request. Due is its offset from the start of the
// run it belongs to; requests are timed from it, not from when they were
// sent.
type op struct {
	Due  time.Duration     `json:"due"`
	Kind opKind            `json:"kind"`
	Job  string            `json:"job,omitempty"`
	W    *workload.ChurnOp `json:"w,omitempty"`
}

// workloadSpec is one traffic mix over one server configuration.
type workloadSpec struct {
	name string
	// rate is the nominal offered load in ops/s, set from a capacity
	// search (-capacity) against the SLO class's p99 limit sloMs; see
	// METRICS.md.
	rate     float64
	readFrac float64
	scanFrac float64
	sloClass opKind
	sloMs    float64
	policy   string
	shards   int  // >1 runs the in-process shard router
	phase    bool // phase reconciliation of hot components
	// gen builds the base instance and a write trace of n mutations.
	gen func(n int) *workload.Churn
}

// traceSeed fixes every workload's base instance and write trace. The
// run's seed draws the arrival times, the interleaving of reads and
// scans with the trace, and the read targets. With a seeded trace the
// transients admitted into the contention workload's giant component
// changed its solve cost, and with it CPU per op, by about a fifth from
// seed to seed: the seed then picked the system being measured.
const traceSeed = 1

func genChurnBase(n int) *workload.Churn {
	return workload.GenerateChurn(workload.ChurnConfig{
		Sparse: workload.SparseConfig{
			Components: 64, JobsPerComponent: 16, SitesPerComponent: 4, Seed: traceSeed,
		},
		Mutations: n,
		Seed:      traceSeed,
	})
}

func genContentionBase(n int) *workload.Churn {
	c := workload.GenerateContention(workload.ContentionConfig{
		Components: 8, Jobs: 512, SitesPerComponent: 4, Skew: 1.1,
		Mutations: n, Seed: traceSeed,
	})
	return &c.Churn
}

var workloads = []*workloadSpec{
	// Write-heavy churn over 64 small components: serve batching,
	// incremental splicing, per-component solves and WAL fsync.
	{
		name:     "churn",
		rate:     160,
		readFrac: 0.10,
		sloClass: opWrite, sloMs: 25,
		policy: "amf", shards: 1,
		gen: genChurnBase,
	},
	// Point reads and full allocation scans over the churn state: API
	// render/encode and client decode.
	{
		name:     "read-mostly",
		rate:     120,
		readFrac: 0.85, scanFrac: 0.05,
		sloClass: opRead, sloMs: 100,
		policy: "amf", shards: 1,
		gen: genChurnBase,
	},
	// Zipf-skewed Enhanced-AMF writes on a 2-shard router with phase
	// reconciliation: one giant component dominates the solve.
	{
		name:     "hot-sharded",
		rate:     50,
		readFrac: 0.15, scanFrac: 0.05,
		sloClass: opWrite, sloMs: 50,
		policy: "amf-enhanced", shards: 2, phase: true,
		gen: genContentionBase,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// source deals out a workload's requests deterministically from a seed:
// the write trace comes from the repo's generator (unique transient IDs,
// every evict after its admit), reads target base jobs that are never
// removed, so no generated request is expected to fail.
type source struct {
	spec     *workloadSpec
	base     *core.Instance
	writes   []workload.ChurnOp
	next     int
	baseJobs []string
	rng      *rand.Rand
	deck     []opKind // classes left in the current block
}

// blockLen is the block the request mix is dealt in: every block of 20
// requests holds exactly the mix's share of each class, in seeded order.
// Independent draws let a 4 s sub-window of read-mostly hold ±20% scans,
// and scans dominate its CPU per op.
const blockLen = 20

func newSource(spec *workloadSpec, seed uint64, maxWrites int) *source {
	c := spec.gen(maxWrites)
	h := fnv.New64a()
	h.Write([]byte(spec.name))
	return &source{
		spec:     spec,
		base:     c.Inst,
		writes:   c.Ops,
		baseJobs: c.Inst.JobName,
		rng:      rand.New(rand.NewPCG(seed, h.Sum64())),
	}
}

// draw returns the next request of the mix, undated.
func (s *source) draw() (op, error) {
	if len(s.deck) == 0 {
		scans := int(math.Round(s.spec.scanFrac * blockLen))
		reads := int(math.Round(s.spec.readFrac * blockLen))
		for i := 0; i < blockLen; i++ {
			k := opWrite
			if i < scans {
				k = opScan
			} else if i < scans+reads {
				k = opRead
			}
			s.deck = append(s.deck, k)
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	k := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	switch k {
	case opScan:
		return op{Kind: opScan}, nil
	case opRead:
		return op{Kind: opRead, Job: s.baseJobs[s.rng.IntN(len(s.baseJobs))]}, nil
	}
	if s.next >= len(s.writes) {
		return op{}, fmt.Errorf("write trace exhausted after %d mutations", len(s.writes))
	}
	w := &s.writes[s.next]
	s.next++
	return op{Kind: opWrite, Job: w.Job, W: w}, nil
}

// take returns n undated requests (warm-up traffic).
func (s *source) take(n int) ([]op, error) {
	ops := make([]op, 0, n)
	for len(ops) < n {
		o, err := s.draw()
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// schedule returns the requests of a Poisson arrival process at rate
// ops/s over the given window: independent callers, so the loop is open.
func (s *source) schedule(rate float64, window time.Duration) ([]op, error) {
	var ops []op
	t := 0.0
	for {
		t += s.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return ops, nil
		}
		o, err := s.draw()
		if err != nil {
			return nil, err
		}
		o.Due = due
		ops = append(ops, o)
	}
}

// capacityArg renders the base instance's site capacities as the
// server's -capacity flag.
func capacityArg(in *core.Instance) string {
	parts := make([]string, len(in.SiteCapacity))
	for i, c := range in.SiteCapacity {
		parts[i] = strconv.FormatFloat(c, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
