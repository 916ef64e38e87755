package analysis

import (
	"fmt"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/stats"
	"panrucio/internal/topology"
)

// Check is one qualitative claim of the paper evaluated against a run. The
// struct is value data (no store or grid pointers), so sweep outcomes can
// retain checks after their scenario's store has been released.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// String renders the check in the "[PASS] name — detail" form printed by
// cmd/repro.
func (c Check) String() string {
	status := "PASS"
	if !c.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("[%s] %s — %s", status, c.Name, c.Detail)
}

// ShapeChecks verifies the paper's qualitative claims against one run:
// monotone Exact <= RM1 <= RM2 match counts, exact matches mostly local,
// RM2 unlocking remote transfers, the Table 1 activity split, heatmap
// local dominance and imbalance, rare extreme transfer-time jobs, the
// managed-volume curve, the three case studies, and the grid scale. All
// pass for the default paper-scale seeds; sweep scenarios deliberately
// push some of them into FAIL (that is the robustness signal E14 reports).
//
// The window [from, to) must be the run's study window; cmp must be the
// three matching passes over that window's user jobs.
func ShapeChecks(store *metastore.Store, grid *topology.Grid, from, to simtime.VTime, cmp *MethodComparison) []Check {
	var out []Check
	check := func(name string, ok bool, detail string) {
		out = append(out, Check{Name: name, OK: ok, Detail: detail})
	}
	e, r1, r2 := cmp.Exact, cmp.RM1, cmp.RM2

	check("monotone transfers", e.MatchedTransfers <= r1.MatchedTransfers && r1.MatchedTransfers <= r2.MatchedTransfers,
		fmt.Sprintf("%d <= %d <= %d", e.MatchedTransfers, r1.MatchedTransfers, r2.MatchedTransfers))
	check("monotone jobs", e.MatchedJobs <= r1.MatchedJobs && r1.MatchedJobs <= r2.MatchedJobs,
		fmt.Sprintf("%d <= %d <= %d", e.MatchedJobs, r1.MatchedJobs, r2.MatchedJobs))
	localFrac := 0.0
	if e.MatchedTransfers > 0 {
		localFrac = float64(e.LocalTransfers) / float64(e.MatchedTransfers)
	}
	check("exact mostly local", localFrac >= 0.8,
		fmt.Sprintf("local fraction %.2f (paper 0.94)", localFrac))
	check("RM2 unlocks remote", r2.RemoteTransfers > 3*r1.RemoteTransfers,
		fmt.Sprintf("remote %d -> %d", r1.RemoteTransfers, r2.RemoteTransfers))

	rows := ActivityBreakdown(store, e)
	var up, prodUp, prodDown ActivityRow
	for _, row := range rows {
		switch row.Activity {
		case records.AnalysisUpload:
			up = row
		case records.ProductionUp:
			prodUp = row
		case records.ProductionDown:
			prodDown = row
		}
	}
	check("analysis upload high match", up.Pct() >= 70,
		fmt.Sprintf("%.1f%% (paper 95.4%%)", up.Pct()))
	check("production rows zero", prodUp.Matched == 0 && prodDown.Matched == 0,
		fmt.Sprintf("%d/%d matched", prodUp.Matched, prodDown.Matched))

	h := BuildHeatmap(store, grid, from, to)
	check("heatmap local dominance", h.LocalFraction() >= 0.5,
		fmt.Sprintf("local %.1f%% of %s (paper 77%% of 957.98 PB)",
			100*h.LocalFraction(), stats.FormatBytes(h.TotalBytes)))
	check("heatmap imbalance", h.MeanCell > 10*h.GeoMeanCell,
		fmt.Sprintf("mean %s vs geomean %s (paper 77.75 TB vs 1.11 TB)",
			stats.FormatBytes(h.MeanCell), stats.FormatBytes(h.GeoMeanCell)))

	tc := BuildThresholdCurves(e, nil)
	extreme := tc.AboveThreshold(75)
	total := 0
	for c := 0; c < 4; c++ {
		total += tc.Totals[c]
	}
	check("extreme transfer-time jobs rare", total > 0 && extreme*20 < total,
		fmt.Sprintf("%d of %d above 75%% (paper 72 of 7,907)", extreme, total))

	growth := VolumeGrowth(GrowthConfig{})
	final := growth[len(growth)-1].TotalPB
	check("volume ~1 EB by 2024", final >= 800 && final <= 1300,
		fmt.Sprintf("%.0f PB", final))

	check("fig10 case found", FindLongTransferCase(e, grid, 0.10) != nil, "long-transfer success case")
	check("fig11 case found", FindFailedSpanningCase(e, grid) != nil, "failed job spanning queue+wall")
	check("fig12 case found", FindRM2RedundantCase(r2, grid) != nil, "RM2 redundant transfers with inferable site")

	check("grid scale", len(grid.Sites()) >= 110, fmt.Sprintf("%d sites (paper ~111 active)", len(grid.Sites())))
	return out
}
