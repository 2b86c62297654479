// Live controller: the scheduler package is the integration surface a
// cluster manager embeds. Jobs come and go, executors report progress,
// and the controller exposes the current fair shares — re-solving only
// when the demand topology changes (hysteresis).
//
// Run with: go run ./examples/controller
package main

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/scheduler"
)

func main() {
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{4, 4}, // two sites, 4 slots each
		Policy:       policy.AMF,
	})
	if err != nil {
		panic(err)
	}

	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	show := func(when string) {
		alloc, err := sc.Allocation()
		must(err)
		fmt.Printf("%-28s", when)
		for _, id := range []string{"etl", "training", "adhoc"} {
			if sh, ok := alloc[id]; ok {
				agg := sh[0] + sh[1]
				fmt.Printf("  %s=%.2f", id, agg)
			}
		}
		fmt.Println()
	}

	// An ETL job lands with work at both sites.
	must(sc.AddJob("etl", 1, []float64{4, 4}, []float64{20, 20}))
	show("etl arrives:")

	// A training job lands, pinned to site 0 (its data lives there).
	must(sc.AddJob("training", 1, []float64{4, 0}, []float64{30, 0}))
	show("training arrives (pinned):")

	// Progress reports do not churn the allocation...
	for i := 0; i < 3; i++ {
		_, err = sc.ReportProgress("etl", []float64{2, 2})
		must(err)
	}
	show("after etl progress:")

	// ...until a topology change: etl finishes its site-0 work.
	_, err = sc.ReportProgress("etl", []float64{8, 0})
	must(err)
	show("etl done at site 0:")

	// A weighted ad-hoc query arrives and leaves.
	must(sc.AddJob("adhoc", 2, []float64{2, 2}, nil))
	show("weighted adhoc arrives:")
	must(sc.RemoveJob("adhoc"))
	show("adhoc cancelled:")

	st := sc.Stats()
	fmt.Printf("\ncontroller stats: %d solves, %d cached queries, %d active jobs\n",
		st.Solves, st.Skipped, st.Jobs)
	fmt.Println("note how the pinned training job holds all of site 0 once the")
	fmt.Println("flexible ETL job can be served at site 1 alone.")
}
