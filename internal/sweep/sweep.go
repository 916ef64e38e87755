package sweep

import (
	"runtime"
	"sync"
	"time"

	"panrucio/internal/analysis"
	"panrucio/internal/core"
	"panrucio/internal/obs"
	"panrucio/internal/records"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
	"panrucio/internal/verify"
)

// Options tunes the engine's fan-out. The two knobs multiply: Workers
// scenarios run concurrently, each sharding its matching passes across
// MatchWorkers goroutines. The defaults (all cores × serial matching) fit
// grids with at least as many scenarios as cores; invert them for a
// single huge scenario.
type Options struct {
	// Workers bounds the number of concurrently running scenarios
	// (<= 0 selects GOMAXPROCS). The report is identical for any value.
	Workers int
	// MatchWorkers is the per-scenario matcher fan-out passed to
	// analysis.CompareMethodsParallel (<= 0 runs the passes inline).
	MatchWorkers int
	// Trace, when non-nil, receives one checkpoint event per TraceEvery of
	// virtual time per scenario (named by scenario id) plus one span per
	// scenario. The trace writer serializes concurrent workers' records;
	// the report itself stays byte-identical with tracing on.
	Trace *obs.Trace
	// TraceEvery is the virtual time between trace checkpoints (<= 0
	// selects 6 hours). Ignored without Trace.
	TraceEvery simtime.VTime
}

func (o *Options) fill(scenarios int) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > scenarios {
		o.Workers = scenarios
	}
	if o.MatchWorkers <= 0 {
		o.MatchWorkers = 1
	}
	if o.TraceEvery <= 0 {
		o.TraceEvery = 6 * simtime.Hour
	}
}

// Rate is one matching pass's outcome for one scenario — the E4/E5 row.
type Rate struct {
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

func rate(r *core.Result) Rate {
	return Rate{
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

// ActivityCount is one E3 row: matched vs. total task-carrying transfers
// for one activity under exact matching.
type ActivityCount struct {
	Activity string `json:"activity"`
	Matched  int    `json:"matched"`
	Total    int    `json:"total"`
}

// Outcome aggregates everything the sweep report keeps per scenario. It is
// pure value data — no store, grid, or record pointers — so a scenario's
// store can be collected as soon as its outcome is built.
type Outcome struct {
	ID                  string           `json:"id"`
	X                   float64          `json:"x"`
	UserJobs            int              `json:"user_jobs"`
	StoredEvents        int              `json:"stored_events"`
	TransfersWithTaskID int              `json:"transfers_with_task_id"`
	Exact               Rate             `json:"exact"`
	RM1                 Rate             `json:"rm1"`
	RM2                 Rate             `json:"rm2"`
	Activity            []ActivityCount  `json:"activity"`
	Checks              []analysis.Check `json:"checks"`
	ChecksPassed        int              `json:"checks_passed"`
	ChecksFailed        int              `json:"checks_failed"`

	// Detection is set for scenarios carrying a Tamper config (the E15
	// verify grid): at-rest tamper reconciled against the post-tamper
	// commitment audit.
	Detection *verify.Detection `json:"detection,omitempty"`
	Tamper    *verify.TamperLog `json:"tamper,omitempty"`
}

// Run executes every scenario over a bounded worker pool and aggregates
// the per-scenario outcomes into one report. Every scenario runs on a
// fresh metastore built by sim.Run from its own Config, so the layout
// knobs (sim.Config.Shards, SegmentRows) travel with the scenario.
//
// The report depends only on the scenario list: outcomes land at their
// scenario's index regardless of which worker computes them or in which
// order they finish, so the rendered output is byte-identical for any
// Options.Workers — the same guarantee core's Run/RunParallel give within
// one scenario.
func Run(scenarios []Scenario, opt Options) *Report {
	opt.fill(len(scenarios))
	outcomes := make([]Outcome, len(scenarios))

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outcomes[i] = evaluate(scenarios[i], opt)
			}
		}()
	}
	for i := range scenarios {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return &Report{Outcomes: outcomes}
}

// evaluate runs one scenario end to end: simulate, freeze, run the three
// matching passes, evaluate the shape checks, and flatten everything into
// value data. With Options.Trace set, the run is observed through the
// checkpoint seam (records named by scenario id) and wrapped in a
// per-scenario span — the Outcome is identical either way.
func evaluate(sc Scenario, opt Options) Outcome {
	var res *sim.Result
	if opt.Trace != nil {
		t0 := time.Now()
		res = sim.RunWithObserver(sc.Config, opt.TraceEvery,
			sim.TraceObserver(opt.Trace, sc.ID))
		opt.Trace.Span(sc.ID, int64(res.WindowTo), time.Since(t0), map[string]any{
			"x":             sc.X,
			"stored_events": res.Store.TransferCount(),
		})
	} else {
		res = sim.Run(sc.Config)
	}
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	cmp := analysis.CompareMethodsParallel(core.NewMatcher(res.Store), jobs, opt.MatchWorkers)
	checks := analysis.ShapeChecks(res.Store, res.Grid, res.WindowFrom, res.WindowTo, cmp)

	// The integrity half of E15: with the matching passes done (tolerance
	// measured against ingest corruption), tamper the sealed segments at
	// rest and reconcile the commitment audit against the ground-truth
	// log. The pre-tamper audit pins zero false positives. The store is
	// mutated, but it belongs to this scenario alone.
	var det *verify.Detection
	var tlog *verify.TamperLog
	if sc.Tamper != nil {
		cleanBefore := res.Store.AuditSealed().Clean()
		log := verify.TamperStore(res.Store, *sc.Tamper)
		d := verify.Detect(log, res.Store.AuditSealed())
		det, tlog = &d, &log
		checks = append(checks, analysis.DetectionChecks(
			log.RowsTampered, d.RowsDetected,
			log.SegmentsTruncated, d.TruncsDetected, cleanBefore)...)
	}

	out := Outcome{
		ID:                  sc.ID,
		X:                   sc.X,
		UserJobs:            len(jobs),
		StoredEvents:        res.Store.TransferCount(),
		TransfersWithTaskID: res.Store.TransfersWithTaskID(),
		Exact:               rate(cmp.Exact),
		RM1:                 rate(cmp.RM1),
		RM2:                 rate(cmp.RM2),
		Checks:              checks,
		Detection:           det,
		Tamper:              tlog,
	}
	for _, row := range analysis.ActivityBreakdown(res.Store, cmp.Exact) {
		out.Activity = append(out.Activity, ActivityCount{
			Activity: string(row.Activity), Matched: row.Matched, Total: row.Total,
		})
	}
	for _, c := range checks {
		if c.OK {
			out.ChecksPassed++
		} else {
			out.ChecksFailed++
		}
	}
	return out
}
