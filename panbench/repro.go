package main

import (
	"runtime"
	"slices"
	"strings"
	"time"

	"panrucio/internal/analysis"
	"panrucio/internal/core"
	"panrucio/internal/experiments"
	"panrucio/internal/sim"
)

// reproOut is one batch reproduction and its timings.
type reproOut struct {
	suite   *experiments.Suite
	render  string
	checks  []string
	wall    time.Duration
	simRun  time.Duration
	freezes ckptStats
	root    int32
}

// reproUnit runs the reproduction users run — sim.Run, experiments.Build
// at GOMAXPROCS, RenderAll and ShapeChecks — with a span around each call.
func reproUnit(cfg sim.Config, tr *tracer, group int64) reproOut {
	var o reproOut
	var res *sim.Result
	t0 := time.Now()
	o.root = tr.begin("repro", -1, group)
	sp := tr.begin("sim.run", o.root, group)
	o.freezes, res = runWithFreezes(cfg)
	tr.end(sp)
	o.simRun = time.Since(t0)
	sp = tr.begin("experiments.build", o.root, group)
	o.suite = experiments.Build(res, 0)
	tr.end(sp)
	sp = tr.begin("report.render_all", o.root, group)
	o.render = o.suite.RenderAll()
	tr.end(sp)
	sp = tr.begin("analysis.shape_checks", o.root, group)
	o.checks = o.suite.ShapeChecks()
	tr.end(sp)
	tr.end(o.root)
	o.wall = time.Since(t0)
	return o
}

func (o reproOut) passed() int { return passedChecks(o.checks) }

func passedChecks(checks []string) int {
	n := 0
	for _, c := range checks {
		if strings.HasPrefix(c, "[PASS]") {
			n++
		}
	}
	return n
}

// gateSeed is the seed cmd/repro gates on.
const gateSeed = 1

// gateChecks adds shape_checks_passed: the paper shape checks passed at
// the gate seed, whatever the run's seed, so that the count is the same
// in every run of one program and a single lost check shows. own is the
// count the workload saw at its own seed, which is printed; for another
// seed than the gate seed, one reproduction of the gate seed is made
// here, after the measured region.
func gateChecks(r *report, seed int64, own int) {
	gate := own
	if seed != gateSeed {
		gate = passedChecks(experiments.Build(sim.Run(sim.PaperConfig(gateSeed)), 0).ShapeChecks())
	}
	r.note("shape checks passed: %d at seed %d; %d at the gate seed %d", own, seed, gate, gateSeed)
	r.addNamed("shape_checks_passed", float64(gate), "count")
	r.addE2E("shape_checks_passed", float64(gate), "count")
}

// checkRepro checks one reproduction outside its timed region: each
// matching pass at GOMAXPROCS must equal a workers=1 pass over the same
// store, and the rendered report must equal the first one of the run
// (same seed, so the same bytes).
func checkRepro(r *report, o reproOut, firstRender string) {
	r.attempted++ // the reproduction itself
	s := o.suite
	serial := analysis.CompareMethodsParallel(core.NewMatcher(s.Result.Store), s.Jobs, 1)
	for i, pair := range [][2]*core.Result{
		{s.Cmp.Exact, serial.Exact}, {s.Cmp.RM1, serial.RM1}, {s.Cmp.RM2, serial.RM2},
	} {
		r.check(sameMatches(pair[0], pair[1]), "%v pass at %d workers differs from workers=1",
			core.Method(i), s.Workers)
	}
	r.check(o.render == firstRender, "RenderAll output differs between reproductions of one seed")
}

// sameMatches reports whether two passes found the same transfers for
// the same jobs, with the same totals.
func sameMatches(a, b *core.Result) bool {
	if analysis.Rates(a) != analysis.Rates(b) || len(a.Matches) != len(b.Matches) {
		return false
	}
	for i := range a.Matches {
		ma, mb := a.Matches[i], b.Matches[i]
		if ma.Job.PandaID != mb.Job.PandaID || !slices.Equal(ma.Transfers, mb.Transfers) {
			return false
		}
	}
	return true
}

// runRepro is the repro-8d workload: the 8-day batch reproduction,
// repeated while the measured time lasts.
func runRepro(cfg runCfg) (*report, error) {
	r := &report{}
	paper := sim.PaperConfig(cfg.seed)
	if cfg.trace {
		return traceRepro(cfg, r, paper)
	}

	// Set-up warms the process on the 2-day quick scenario, through the
	// same pipeline, so lazy initialisation and heap growth are done
	// before the first timed reproduction.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		reproUnit(sim.QuickConfig(cfg.seed), nil, 0)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var walls []float64
	var last reproOut
	first := ""
	var elapsed time.Duration
	for elapsed < time.Duration(cfg.seconds*float64(time.Second)) {
		last = reproOut{} // let the previous store go before the next run
		runtime.GC()      // start each timed run from the same collected heap
		last = reproUnit(paper, nil, 0)
		elapsed += last.wall
		walls = append(walls, last.wall.Seconds())
		if first == "" {
			first = last.render
		}
		checkRepro(r, last, first)
	}
	heap := heapLiveBytes()
	med := median(slices.Clone(walls))
	events := float64(last.suite.Result.StoredEvents)
	r.note("%d reproductions; wall %v s; %d stored events; %d window user jobs",
		len(walls), walls, int64(events), len(last.suite.Jobs))
	for _, c := range last.checks {
		if !strings.HasPrefix(c, "[PASS]") {
			r.note("shape check %s", c)
		}
	}
	r.addNamed("repro_s", med, "s")
	r.addNamed("heap_live_mb", float64(heap)/1e6, "MB")
	r.addE2E("setup_s", median(setups), "s")
	r.addE2E("latency_p50_ms", med*1000, "ms")
	r.addE2E("latency_tail_ms", slices.Max(walls)*1000, "ms")
	r.addE2E("throughput_per_s", events/med, "1/s")
	r.addE2E("heap_live_mb", float64(heap)/1e6, "MB")
	passed := last.passed()
	last = reproOut{} // let the suite go before the gate's reproduction
	gateChecks(r, cfg.seed, passed)
	return r, nil
}

// traceRepro is repro-8d's traced run: one reproduction untraced and one
// traced (their difference is the tracing overhead), then the ledger over
// the traced run's store.
func traceRepro(cfg runCfg, r *report, paper sim.Config) (*report, error) {
	reproUnit(sim.QuickConfig(cfg.seed), nil, 0)
	plain := reproUnit(paper, nil, 0)
	checkRepro(r, plain, plain.render)
	first, plainWall := plain.render, plain.wall.Seconds()
	plain = reproOut{}
	g0 := readGo()
	o := reproUnit(paper, cfg.tr, 1)
	gd := diffGo(g0, readGo())
	checkRepro(r, o, first)
	heap := heapLiveBytes()

	fs, err := newFrozen(o.suite.Result, cfg.tr, -1, -3)
	if err != nil {
		return nil, err
	}
	led := &ledger{r: r, tr: cfg.tr, seed: cfg.seed, simRun: o.simRun, freezes: o.freezes,
		goDelta: gd, heapLive: heap, storedEv: o.suite.Result.StoredEvents}
	if err := led.run(o.suite.Result, fs); err != nil {
		return nil, err
	}
	led.overheadPct = 100 * (o.wall.Seconds() - plainWall) / plainWall
	// The traced reproduction's four spans cover it back to back, so span
	// coverage would read 1.0 by construction. The share is instead the
	// ledger's per-layer self times, each measured apart from the traced
	// reproduction, summed over its wall time.
	sum, after := led.selfSum()
	led.layerShare = sum.Seconds() / o.wall.Seconds()
	r.note("layer self times sum to %.1f ms of a %.1f ms traced reproduction; after sim.run, the ledger's "+
		"window, match, render and shape times sum to %.1f ms of the traced %.1f ms",
		ms(sum), ms(o.wall), ms(after), ms(o.wall-o.simRun))
	led.report()
	return r, nil
}
