// Sweep: build a two-axis scenario grid (workload mix × background
// intensity), run it concurrently through the sweep engine, and print the
// aggregate markdown report plus one derived curve. Shows the three
// layers of internal/sweep: grid construction (Expand / canned axes), the
// bounded worker pool with one fresh store per scenario, and the
// deterministic report.
package main

import (
	"fmt"

	"panrucio/internal/sim"
	"panrucio/internal/sweep"
)

func main() {
	// 1. A grid is a cross product of axes over a base config. Quick base
	//    (2 simulated days) keeps the example fast; the same axes work on
	//    sim.PaperConfig.
	base := sim.QuickConfig(1)
	scenarios := sweep.Expand(base, sweep.WorkloadMixAxis(), sweep.BackgroundAxis(0, 1))
	fmt.Printf("grid: %d scenarios\n", len(scenarios))
	for _, sc := range scenarios {
		fmt.Printf("  %s\n", sc.ID)
	}
	fmt.Println()

	// 2. Run them over a bounded worker pool. The report is byte-identical
	//    for any worker count — each outcome lands at its scenario's index.
	rep := sweep.Run(scenarios, sweep.Options{Workers: 4})
	fmt.Print(rep.Markdown())

	// 3. Outcomes are plain values, so deriving custom views is ordinary
	//    slice code: here, how the task mix and background traffic move the
	//    event volume and the exact-matched share (background events carry
	//    no jeditaskid, but their network contention shifts transfer timing
	//    and with it the match set).
	fmt.Println("\nexact matched transfers per scenario:")
	for _, o := range rep.Outcomes {
		fmt.Printf("  %-24s %4d of %5d events (%.2f%% of task-carrying)\n",
			o.ID, o.Exact.MatchedTransfers, o.StoredEvents, o.Exact.TransferPct)
	}
}
