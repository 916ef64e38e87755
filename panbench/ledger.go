package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"panrucio/internal/analysis"
	"panrucio/internal/core"
	"panrucio/internal/experiments"
	"panrucio/internal/metastore"
	"panrucio/internal/obs"
	"panrucio/internal/records"
	"panrucio/internal/serve"
	"panrucio/internal/sim"
)

// lookupProbes is how many ids the direct store and matcher probes and
// the frozen serving probe (per client) use.
const lookupProbes = 2000

// ckptStats sums the store freezes that ran while a store was built: the
// final freeze of sim.Run, or every checkpoint of a live run.
type ckptStats struct {
	count     int
	sum, last time.Duration
}

// freezeHist is the metastore's process-wide freeze histogram; its deltas
// around a plain sim.Run give the run's final freeze.
var freezeHist = obs.Default().Histogram("metastore_freeze_seconds", "", obs.DefBuckets)

// runWithFreezes is sim.Run, also returning the freezes it did.
func runWithFreezes(cfg sim.Config) (ckptStats, *sim.Result) {
	n0, s0 := freezeHist.Count(), freezeHist.Sum()
	res := sim.Run(cfg)
	st := ckptStats{count: int(freezeHist.Count() - n0)}
	st.sum = time.Duration((freezeHist.Sum() - s0) * float64(time.Second))
	if st.count > 0 {
		st.last = st.sum / time.Duration(st.count)
	}
	return st, res
}

// ledger splits a workload's 8-day store into its layers: it replays the
// store, reruns the matching passes and analysis bodies one by one, and
// probes lookups, the matcher and the serving routes directly. The
// workload fills in what it measured itself; the ledger measures the
// rest on the same store.
type ledger struct {
	r    *report
	tr   *tracer
	seed int64

	// Set by the workload.
	simRun      time.Duration // its sim run, observer callbacks excluded
	freezes     ckptStats
	serveRoutes map[string][]float64 // ServeHTTP µs per route; nil = probe a frozen server
	lags        []float64            // load-generator lag, ms
	livePoints  []liveRead           // live point reads; nil = the workload reads no live store
	readWait    []float64            // point latency minus frozen handler time, ms
	stats       serve.CacheStats
	goDelta     goDelta
	overheadPct float64
	layerShare  float64
	heapLive    uint64
	storedEv    int64

	// Measured by run.
	rows                        int
	put, freeze, replayWindow   time.Duration
	jobsWindow, exact, rm1, rm2 time.Duration
	rm2Yield                    float64
	bodies, shape, renderAll    time.Duration
	lookupUs, probeUs, bodyMs   float64
}

// run measures the layers of res; fs is a frozen server over res whose
// cached bodies are already computed.
func (l *ledger) run(res *sim.Result, fs *frozenState) error {
	root := l.tr.begin("ledger", -1, -1)
	defer l.tr.end(root)
	if err := l.replay(res, root); err != nil {
		return err
	}
	suite := l.passes(res, root)
	l.analysis(suite, root)
	l.lookups(res, fs.jobs, root)
	l.bodyMs = ms(fs.ratesBody)
	if l.serveRoutes == nil {
		o := closedLoop(fs.srv, fs.jobs, l.seed, 100, time.Hour, lookupProbes, l.tr, -2)
		o.account(l.r, fs)
		l.serveRoutes, l.stats = o.lat, fs.srv.CacheStats()
		if l.lags == nil {
			l.lags = o.lags
		}
		if l.livePoints != nil {
			l.readWait = liveWait(l.livePoints, o.lat)
		} else {
			l.readWait = frozenWait(o.lat)
		}
	}
	return nil
}

// frozenWait is a frozen server's read wait: each read's ServeHTTP time
// minus the median of its route, so zero up to noise.
func frozenWait(lat map[string][]float64) []float64 {
	var out []float64
	for _, xs := range lat {
		m := median(slices.Clone(xs))
		for _, x := range xs {
			out = append(out, (x-m)/1000)
		}
	}
	return out
}

// liveWait derives the live read wait: each live point read's latency
// minus the median frozen ServeHTTP time of its route.
func liveWait(points []liveRead, frozen map[string][]float64) []float64 {
	meds := map[string]float64{}
	for route, xs := range frozen {
		meds[route] = median(slices.Clone(xs)) / 1000
	}
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.lat - meds[p.route]
	}
	return out
}

// replay takes the run's jobs, files and transfers out through public
// queries and puts them into a fresh store, timing ingest, a live-path
// window query and the freeze apart from the engine. The replayed store
// must give the same row counts and match counts as the original.
func (l *ledger) replay(res *sim.Result, parent int32) error {
	src := res.Store
	jobs := src.Jobs(math.MinInt64, math.MaxInt64, "")
	type key struct{ panda, jedi int64 }
	seen := map[key]bool{}
	var files []*records.FileRecord
	for _, j := range jobs {
		if k := (key{j.PandaID, j.JediTaskID}); !seen[k] {
			seen[k] = true
			files = append(files, src.FilesForJob(j.PandaID, j.JediTaskID)...)
		}
	}
	evs := src.Transfers(0, 0)
	rows := len(jobs) + len(files) + len(evs)
	l.rows = rows

	dst := metastore.NewShardedSegmented(res.Config.Shards, res.Config.SegmentRows)
	sp := l.tr.begin("metastore.put", parent, -1)
	t0 := time.Now()
	for _, j := range jobs {
		dst.PutJob(j)
	}
	for _, f := range files {
		dst.PutFile(f)
	}
	for _, ev := range evs {
		dst.PutTransfer(ev)
	}
	l.put = time.Since(t0)
	l.tr.end(sp)
	sp = l.tr.begin("metastore.window_query", parent, -1)
	t0 = time.Now()
	window := dst.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	l.replayWindow = time.Since(t0)
	l.tr.end(sp)
	sp = l.tr.begin("metastore.freeze", parent, -1)
	t0 = time.Now()
	dst.Freeze()
	l.freeze = time.Since(t0)
	l.tr.end(sp)

	l.r.check(dst.JobCount() == src.JobCount() && dst.FileCount() == src.FileCount() &&
		dst.TransferCount() == src.TransferCount() && dst.TransfersWithTaskID() == src.TransfersWithTaskID(),
		"replay: rows %d/%d/%d, original %d/%d/%d", dst.JobCount(), dst.FileCount(), dst.TransferCount(),
		src.JobCount(), src.FileCount(), src.TransferCount())
	if rows == 0 {
		return fmt.Errorf("replay: the run stored no rows")
	}
	want := analysis.CompareMethodsParallel(core.NewMatcher(src),
		src.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser), 0)
	got := analysis.CompareMethodsParallel(core.NewMatcher(dst), window, 0)
	l.r.check(slices.Equal(got.Summary(), want.Summary()), "replay: match counts differ from the original store")
	l.r.note("replay: %d rows (%d jobs, %d files, %d transfers) put in %.1f ms, %.0f rows/s",
		rows, len(jobs), len(files), len(evs), ms(l.put), float64(rows)/l.put.Seconds())
	return nil
}

// passes reruns experiments.Build's steps one by one: the window query
// and the three matching passes at GOMAXPROCS.
func (l *ledger) passes(res *sim.Result, parent int32) *experiments.Suite {
	workers := runtime.GOMAXPROCS(0)
	timed := func(name string, fn func()) time.Duration {
		sp := l.tr.begin(name, parent, -1)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		l.tr.end(sp)
		return d
	}
	var jobs []*records.JobRecord
	l.jobsWindow = timed("analysis.jobs_window", func() {
		jobs = res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	})
	m := core.NewMatcher(res.Store)
	cmp := &analysis.MethodComparison{}
	l.exact = timed("core.match_exact", func() { cmp.Exact = m.RunParallel(jobs, core.Exact, workers) })
	l.rm1 = timed("core.match_rm1", func() { cmp.RM1 = m.RunParallel(jobs, core.RM1, workers) })
	l.rm2 = timed("core.match_rm2", func() { cmp.RM2 = m.RunParallel(jobs, core.RM2, workers) })
	if len(jobs) > 0 {
		l.rm2Yield = float64(cmp.RM2.MatchedJobs) / float64(len(jobs))
	}
	return &experiments.Suite{Result: res, Jobs: jobs, Cmp: cmp, Workers: workers}
}

// analysis times each experiment body (E2-E13 plus the anomaly scan), the
// shape checks and the full render, which recomputes the bodies.
func (l *ledger) analysis(s *experiments.Suite, parent int32) {
	bodies := []struct {
		name string
		fn   func()
	}{
		{"fig3", func() { s.Fig3() }},
		{"table1", func() { s.Table1() }},
		{"table2a", func() { s.Cmp.TransferCountTable() }},
		{"table2b", func() { s.Cmp.JobCountTable() }},
		{"fig5", func() { s.Fig5() }},
		{"fig6", func() { s.Fig6() }},
		{"fig7", func() { s.Fig7() }},
		{"fig8", func() { s.Fig8() }},
		{"fig9", func() { s.Fig9() }},
		{"fig10", func() { s.Fig10() }},
		{"fig11", func() { s.Fig11() }},
		{"fig12", func() { s.Fig12() }},
		{"anomaly", func() { s.Anomalies() }},
	}
	// render_self is the difference of two timings of a few tens of ms,
	// so both are medians over renderPasses alternating passes.
	var sums, renders []float64
	for i := 0; i < renderPasses; i++ {
		all := l.tr.begin("analysis.bodies", parent, -1)
		var sum time.Duration
		for _, b := range bodies {
			sp := l.tr.begin("analysis."+b.name, all, -1)
			t0 := time.Now()
			b.fn()
			sum += time.Since(t0)
			l.tr.end(sp)
		}
		l.tr.end(all)
		sp := l.tr.begin("report.render_all", parent, -1)
		t0 := time.Now()
		s.RenderAll()
		renders = append(renders, float64(time.Since(t0)))
		l.tr.end(sp)
		sums = append(sums, float64(sum))
	}
	l.bodies, l.renderAll = time.Duration(median(sums)), time.Duration(median(renders))
	sp := l.tr.begin("analysis.shape", parent, -1)
	t0 := time.Now()
	s.ShapeChecks()
	l.shape = time.Since(t0)
	l.tr.end(sp)
}

// renderPasses is how many times the ledger times the bodies and RenderAll.
const renderPasses = 5

// lookups calls the store's point queries and the single-job matcher
// directly on lookupProbes ids drawn uniformly from the window's user jobs.
func (l *ledger) lookups(res *sim.Result, jobs []target, parent int32) {
	st := res.Store
	m := core.NewMatcher(st)
	d := newDrawer(l.seed, 200, frozenMix, jobs)
	var look, probe []float64
	methods := []core.Method{core.Exact, core.RM1, core.RM2}
	for i := 0; i < lookupProbes && len(jobs) > 0; i++ {
		q := d.next(len(jobs))
		sp := l.tr.begin("metastore.lookup", parent, -1)
		t0 := time.Now()
		j, ok := st.Job(q.t.panda)
		if ok {
			st.FilesForJob(j.PandaID, j.JediTaskID)
			st.TransfersByTaskID(j.JediTaskID)
		}
		look = append(look, us(time.Since(t0)))
		l.tr.end(sp)
		l.r.check(ok, "Store.Job(%d): window job not found", q.t.panda)
		if !ok {
			continue
		}
		sp = l.tr.begin("core.probe", parent, -1)
		t0 = time.Now()
		m.MatchJob(j, methods[i%len(methods)])
		probe = append(probe, us(time.Since(t0)))
		l.tr.end(sp)
	}
	l.lookupUs, l.probeUs = median(look), median(probe)
}

// selfSum adds up the per-layer self times of one reproduction as the
// report gives them. sim.self, put and freeze add up to sim.run; after is
// the rest: the window query, the three passes, the bodies plus the
// render's own time (= RenderAll) and the shape checks.
func (l *ledger) selfSum() (sum, after time.Duration) {
	after = l.jobsWindow + l.exact + l.rm1 + l.rm2 + l.renderAll + l.shape
	return l.simRun + after, after
}

// report adds every per-layer metric, in BENCHMARK.json order.
func (l *ledger) report() {
	r := l.r
	r.addLayer("sim.run_ms", ms(l.simRun), "ms")
	r.addLayer("sim.self_ms", ms(l.simRun-l.put-l.freeze), "ms")
	r.addLayer("sim.stored_events", float64(l.storedEv), "count")
	r.addLayer("metastore.put_ms", ms(l.put), "ms")
	rows := float64(0)
	if l.put > 0 {
		rows = float64(l.rows) / l.put.Seconds()
	}
	r.addLayer("metastore.put_rows_per_s", rows, "1/s")
	r.addLayer("metastore.freeze_ms", ms(l.freeze), "ms")
	r.addLayer("metastore.ckpt_freeze_sum_ms", ms(l.freezes.sum), "ms")
	r.addLayer("metastore.ckpt_freeze_last_ms", ms(l.freezes.last), "ms")
	r.addLayer("metastore.ckpt_count", float64(l.freezes.count), "count")
	r.addLayer("metastore.window_query_ms", ms(l.replayWindow), "ms")
	r.addLayer("metastore.lookup_us", l.lookupUs, "us")
	perEvent := 0.0
	if l.storedEv > 0 {
		perEvent = float64(l.heapLive) / float64(l.storedEv)
	}
	r.addLayer("metastore.heap_B_per_event", perEvent, "B")
	r.addLayer("core.match_exact_ms", ms(l.exact), "ms")
	r.addLayer("core.match_rm1_ms", ms(l.rm1), "ms")
	r.addLayer("core.match_rm2_ms", ms(l.rm2), "ms")
	r.addLayer("core.probe_us", l.probeUs, "us")
	r.addLayer("core.rm2_job_yield", l.rm2Yield, "ratio")
	r.addLayer("analysis.jobs_window_ms", ms(l.jobsWindow), "ms")
	r.addLayer("analysis.bodies_ms", ms(l.bodies), "ms")
	r.addLayer("analysis.shape_ms", ms(l.shape), "ms")
	r.addLayer("report.render_self_ms", ms(l.renderAll-l.bodies), "ms")
	for _, route := range []string{"match", "job", "task", "hit"} {
		r.addLayer("serve."+route+"_us", median(slices.Clone(l.serveRoutes[route])), "us")
	}
	ratio := 0.0
	if n := l.stats.Hits + l.stats.Misses; n > 0 {
		ratio = float64(l.stats.Hits) / float64(n)
	}
	r.addLayer("serve.cache_hit_ratio", ratio, "ratio")
	r.addLayer("serve.body_ms", l.bodyMs, "ms")
	// The mean, so that the long stalls a few reads suffer count in full.
	wait := 0.0
	for _, w := range l.readWait {
		wait += w / float64(len(l.readWait))
	}
	r.addLayer("serve.read_wait_ms", wait, "ms")
	r.addLayer("go.gc_cpu_fraction", l.goDelta.GCCPUFraction, "ratio")
	r.addLayer("go.alloc_mb", l.goDelta.AllocMB, "MB")
	r.addLayer("go.num_gc", l.goDelta.NumGC, "count")
	r.addLayer("go.gc_pause_p99_us", l.goDelta.PauseP99us, "us")
	r.addLayer("loadgen.lag_p99_ms", percentile(l.lags, 99), "ms")
	r.addLayer("trace.overhead_pct", l.overheadPct, "%")
	r.addLayer("trace.layer_share", l.layerShare, "ratio")
}
