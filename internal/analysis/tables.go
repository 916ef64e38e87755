package analysis

import (
	"fmt"

	"panrucio/internal/core"
	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/report"
)

// ActivityRow is one row of Table 1: matched vs. total transfers for one
// activity, among transfers carrying a jeditaskid.
type ActivityRow struct {
	Activity records.Activity
	Matched  int
	Total    int
}

// Pct is the matched percentage for the row.
func (r ActivityRow) Pct() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Matched) / float64(r.Total)
}

// ActivityBreakdown computes Table 1 from an exact-matching result: the
// per-activity split of matched transfers against all task-carrying
// transfers in the store. The denominators come from the metastore's
// ingest-time activity counters rather than a scan of the event log.
func ActivityBreakdown(store *metastore.Store, res *core.Result) []ActivityRow {
	matched := map[records.Activity]int{}
	seen := map[int64]bool{}
	for _, m := range res.Matches {
		for _, ev := range m.Transfers {
			if !seen[ev.EventID] {
				seen[ev.EventID] = true
				matched[ev.Activity]++
			}
		}
	}
	total := store.TaskTransfersByActivity()
	var rows []ActivityRow
	for _, a := range records.JobActivities {
		rows = append(rows, ActivityRow{Activity: a, Matched: matched[a], Total: total[a]})
	}
	return rows
}

// ActivityTable renders Table 1.
func ActivityTable(rows []ActivityRow) *report.Table {
	t := &report.Table{
		Title:   "Table 1 — breakdown of exact matched transfers",
		Columns: []string{"Transfer activity type", "Matched count", "Total count", "Percentage"},
	}
	var m, tot int
	for _, r := range rows {
		t.AddRow(string(r.Activity), fmt.Sprintf("%d", r.Matched),
			fmt.Sprintf("%d", r.Total), fmt.Sprintf("%.2f%%", r.Pct()))
		m += r.Matched
		tot += r.Total
	}
	pct := 0.0
	if tot > 0 {
		pct = 100 * float64(m) / float64(tot)
	}
	t.AddRow("Total", fmt.Sprintf("%d", m), fmt.Sprintf("%d", tot), fmt.Sprintf("%.2f%%", pct))
	return t
}

// MethodComparison bundles the three matching passes (Tables 2a and 2b).
type MethodComparison struct {
	Exact, RM1, RM2 *core.Result
}

// CompareMethods runs all three strategies over the same job set.
func CompareMethods(m *core.Matcher, jobs []*records.JobRecord) *MethodComparison {
	return CompareMethodsParallel(m, jobs, 1)
}

// CompareMethodsParallel is CompareMethods with each pass sharded across
// workers (<= 0 selects GOMAXPROCS; 1 runs inline).
func CompareMethodsParallel(m *core.Matcher, jobs []*records.JobRecord, workers int) *MethodComparison {
	return &MethodComparison{
		Exact: m.RunParallel(jobs, core.Exact, workers),
		RM1:   m.RunParallel(jobs, core.RM1, workers),
		RM2:   m.RunParallel(jobs, core.RM2, workers),
	}
}

// MethodRates is the value-only summary of one matching pass: the E4/E5
// numbers with no record or store pointers, so it can be cached, compared,
// and marshaled long after the store that produced it has moved on or been
// released. This is the cache-keyable shape the serving layer stores per
// (config digest, store epoch).
type MethodRates struct {
	Method           string  `json:"method"`
	MatchedTransfers int     `json:"matched_transfers"`
	MatchedJobs      int     `json:"matched_jobs"`
	LocalTransfers   int     `json:"local_transfers"`
	RemoteTransfers  int     `json:"remote_transfers"`
	JobsAllLocal     int     `json:"jobs_all_local"`
	JobsAllRemote    int     `json:"jobs_all_remote"`
	JobsMixed        int     `json:"jobs_mixed"`
	TransferPct      float64 `json:"transfer_pct"`
	JobPct           float64 `json:"job_pct"`
}

// Rates flattens one matching pass to its value-only summary.
func Rates(r *core.Result) MethodRates {
	return MethodRates{
		Method:           r.Method.String(),
		MatchedTransfers: r.MatchedTransfers,
		MatchedJobs:      r.MatchedJobs,
		LocalTransfers:   r.LocalTransfers,
		RemoteTransfers:  r.RemoteTransfers,
		JobsAllLocal:     r.JobsAllLocal,
		JobsAllRemote:    r.JobsAllRemote,
		JobsMixed:        r.JobsMixed,
		TransferPct:      r.MatchedTransferPct(),
		JobPct:           r.MatchedJobPct(),
	}
}

// Summary flattens all three passes, in Exact/RM1/RM2 order.
func (c *MethodComparison) Summary() []MethodRates {
	return []MethodRates{Rates(c.Exact), Rates(c.RM1), Rates(c.RM2)}
}

// TransferCountTable renders Table 2a: matched transfer counts by method.
func (c *MethodComparison) TransferCountTable() *report.Table {
	t := &report.Table{
		Title:   "Table 2a — matched transfers count",
		Columns: []string{"Matching method", "Local transfer", "Remote transfer", "Total transfer", "Total matched %"},
	}
	for _, r := range []*core.Result{c.Exact, c.RM1, c.RM2} {
		t.AddRow(r.Method.String(),
			fmt.Sprintf("%d", r.LocalTransfers),
			fmt.Sprintf("%d", r.RemoteTransfers),
			fmt.Sprintf("%d", r.MatchedTransfers),
			fmt.Sprintf("%.2f%%", r.MatchedTransferPct()))
	}
	return t
}

// JobCountTable renders Table 2b: matched job counts by method.
func (c *MethodComparison) JobCountTable() *report.Table {
	t := &report.Table{
		Title:   "Table 2b — matched job count",
		Columns: []string{"Matching method", "Jobs all local", "Jobs all remote", "Jobs mixed", "Total jobs", "Total matched %"},
	}
	for _, r := range []*core.Result{c.Exact, c.RM1, c.RM2} {
		t.AddRow(r.Method.String(),
			fmt.Sprintf("%d", r.JobsAllLocal),
			fmt.Sprintf("%d", r.JobsAllRemote),
			fmt.Sprintf("%d", r.JobsMixed),
			fmt.Sprintf("%d", r.MatchedJobs),
			fmt.Sprintf("%.2f%%", r.MatchedJobPct()))
	}
	return t
}
