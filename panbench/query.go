package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"panrucio/internal/records"
	"panrucio/internal/serve"
	"panrucio/internal/sim"
)

// clients is the number of in-process client goroutines every load
// generator runs: the benchmark machine has two CPUs.
const clients = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// queryWindow is the length of one of query-frozen's measured windows.
const queryWindow = time.Second

// windowStream is the first drawer stream of query-frozen's windows; the
// ledger's probes use streams 100-300.
const windowStream = 1000

// frozenState is a frozen 8-day store behind a server whose cached
// experiment bodies are already computed.
type frozenState struct {
	res    *sim.Result
	srv    *serve.Server
	jobs   []target          // the window's user jobs, by pandaid
	hits   map[string][]byte // the first body served for each hitIDs entry
	checks int               // shape checks passed, from /api/experiments/checks
	// ratesBody is the server's first request, /api/experiments/rates: an
	// uncached body, for which the server builds the suite.
	ratesBody time.Duration
}

// windowJobs lists the study window's user jobs as read targets.
func windowJobs(res *sim.Result) []target {
	js := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	out := make([]target, len(js))
	for i, j := range js {
		out[i] = target{j.PandaID, j.JediTaskID}
	}
	return out
}

// newFrozen serves res from a fresh frozen server and computes its cached
// experiment bodies. The first /api/experiments/rates request is the
// uncached body: the server builds the suite for it.
func newFrozen(res *sim.Result, tr *tracer, parent int32, group int64) (*frozenState, error) {
	fs := &frozenState{res: res, srv: serve.NewFrozen(res, serve.Options{}), jobs: windowJobs(res), hits: map[string][]byte{}}
	w := newRecorder()
	for _, id := range hitIDs {
		sp := tr.begin("serve.body", parent, group)
		code, d := get(fs.srv, w, request{kind: kHit, hit: id})
		tr.end(sp)
		if code != http.StatusOK {
			return nil, fmt.Errorf("GET /api/experiments/%s: status %d", id, code)
		}
		if id == "rates" {
			fs.ratesBody = d
		}
		fs.hits[id] = bytes.Clone(w.body.Bytes())
	}
	n, err := checksPassed(fs.hits["checks"])
	if err != nil {
		return nil, err
	}
	fs.checks = n
	return fs, nil
}

// checksPassed counts the passing shape checks in a checks body.
func checksPassed(body []byte) (int, error) {
	var b serve.Body
	if err := json.Unmarshal(body, &b); err != nil {
		return 0, fmt.Errorf("decode checks body: %w", err)
	}
	n := 0
	for _, c := range b.Checks {
		if c.OK {
			n++
		}
	}
	return n, nil
}

// loopOut is what a closed loop measured.
type loopOut struct {
	lat     map[string][]float64 // ServeHTTP time per route, µs
	all     []float64            // every request, µs
	lags    []float64            // gap from the previous response to the next send, ms
	n       int64
	failed  []string
	samples []sample
	elapsed time.Duration
}

// closedLoop runs clients goroutines, each sending its next request as
// soon as the previous one is answered, until dur has passed or each
// client has sent perClient requests (0 = no cap). Every response must be
// 200; every sampleEvery-th is kept for checking.
func closedLoop(srv *serve.Server, jobs []target, seed int64, stream int, dur time.Duration, perClient int,
	tr *tracer, groupBase int64) loopOut {
	outs := make([]loopOut, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.lat = map[string][]float64{}
			d := newDrawer(seed, stream+c, frozenMix, jobs)
			w := newRecorder()
			root := tr.begin("client", -1, groupBase)
			defer tr.end(root)
			prev := time.Now()
			for k := 0; perClient == 0 || k < perClient; k++ {
				if time.Since(start) >= dur {
					break
				}
				q := d.next(len(jobs))
				req := newRequest(q)
				w.reset()
				group := groupBase + int64(k*clients+c)
				t0 := time.Now()
				o.lags = append(o.lags, ms(t0.Sub(prev)))
				sp := tr.begin("serve."+q.kind.route(), root, group)
				srv.ServeHTTP(w, req)
				tr.end(sp)
				prev = time.Now()
				lat := us(prev.Sub(t0))
				o.n++
				o.all = append(o.all, lat)
				o.lat[q.kind.route()] = append(o.lat[q.kind.route()], lat)
				if w.code != http.StatusOK {
					o.failed = append(o.failed, fmt.Sprintf("%s: status %d", q.path(), w.code))
				} else if k%sampleEvery == 0 && len(o.samples) < maxSamples {
					o.samples = append(o.samples, sample{q, bytes.Clone(w.body.Bytes())})
				}
			}
		}(c)
	}
	wg.Wait()
	out := loopOut{lat: map[string][]float64{}, elapsed: time.Since(start)}
	for _, o := range outs {
		out.n += o.n
		out.all = append(out.all, o.all...)
		out.lags = append(out.lags, o.lags...)
		out.failed = append(out.failed, o.failed...)
		out.samples = append(out.samples, o.samples...)
		for r, xs := range o.lat {
			out.lat[r] = append(out.lat[r], xs...)
		}
	}
	return out
}

// account adds a loop's requests and sampled-body checks to the report.
func (o loopOut) account(r *report, fs *frozenState) {
	r.attempted += o.n
	for _, f := range o.failed {
		r.fail("%s", f)
	}
	for _, s := range o.samples {
		err := checkSample(s, fs.res.Store, fs.hits)
		r.check(err == nil, "%v", err)
	}
}

// runQuery is the query-frozen workload: a closed loop of two clients over
// a frozen 8-day store built in set-up, mixing match probes (all three
// methods), job and task lookups and cached experiment bodies, with ids
// drawn uniformly over every user job in the window.
func runQuery(cfg runCfg) (*report, error) {
	r := &report{}
	var fs *frozenState
	var setups []float64
	var simRun time.Duration
	var freezes ckptStats
	reps := setupReps
	if cfg.trace {
		reps = 1 // the traced run reports no setup_s
	}
	for i := 0; i < reps; i++ {
		fs = nil
		t0 := time.Now()
		root := cfg.tr.begin("setup", -1, 0)
		var res *sim.Result
		sp := cfg.tr.begin("sim.run", root, 0)
		freezes, res = runWithFreezes(sim.PaperConfig(cfg.seed))
		cfg.tr.end(sp)
		simRun = time.Since(t0)
		var err error
		fs, err = newFrozen(res, cfg.tr, root, 0)
		if err != nil {
			return nil, err
		}
		cfg.tr.end(root)
		setups = append(setups, time.Since(t0).Seconds())
	}
	heap := heapLiveBytes()
	dur := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		// The loop runs in one-second windows, each with its own draws,
		// and every metric is the median over the windows: the host's
		// speed drifts by ±10% from one second to the next, and a slow
		// stretch shorter than half the run leaves the medians alone.
		var p50s, p99s, rates []float64
		var n int64
		var elapsed time.Duration
		minBeyond := math.MaxInt
		for i := 0; elapsed < dur; i++ {
			o := closedLoop(fs.srv, fs.jobs, cfg.seed, windowStream+i*clients, queryWindow, 0, nil, 0)
			o.account(r, fs)
			p50s = append(p50s, median(o.all))
			p99s = append(p99s, percentile(o.all, 99))
			rates = append(rates, float64(o.n)/o.elapsed.Seconds())
			minBeyond = min(minBeyond, beyond(len(o.all), 99))
			n += o.n
			elapsed += o.elapsed
		}
		p50, p99, qps := median(slices.Clone(p50s)), median(slices.Clone(p99s)), median(slices.Clone(rates))
		r.note("%d requests from %d clients in %.2f s, %d windows of %v (at least %d beyond p99 in each); "+
			"window req/s from %.0f to %.0f; %d window user jobs", n, clients, elapsed.Seconds(), len(rates),
			queryWindow, minBeyond, slices.Min(rates), slices.Max(rates), len(fs.jobs))
		r.addNamed("query_p50_us", p50, "us")
		r.addNamed("query_p99_us", p99, "us")
		r.addNamed("query_per_s", qps, "1/s")
		r.addE2E("setup_s", median(setups), "s")
		r.addE2E("latency_p50_ms", p50/1000, "ms")
		r.addE2E("latency_tail_ms", p99/1000, "ms")
		r.addE2E("throughput_per_s", qps, "1/s")
		r.addE2E("heap_live_mb", float64(heap)/1e6, "MB")
		checks := fs.checks
		fs = nil // let the frozen store go before the gate's reproduction
		gateChecks(r, cfg.seed, checks)
		return r, nil
	}

	// Traced: the same loop untraced, then traced, for half the time each;
	// the tracing overhead is the difference of their medians. The traced
	// loop also stops once its spans would fill half the span buffer, so
	// every request it times keeps its span.
	plain := closedLoop(fs.srv, fs.jobs, cfg.seed, 0, dur/2, 0, nil, 0)
	plain.account(r, fs)
	g0 := readGo()
	traced := closedLoop(fs.srv, fs.jobs, cfg.seed, 0, dur/2, maxSpans/2/clients, cfg.tr, 1)
	gd := diffGo(g0, readGo())
	traced.account(r, fs)
	led := &ledger{r: r, tr: cfg.tr, seed: cfg.seed, simRun: simRun, freezes: freezes,
		serveRoutes: traced.lat, lags: traced.lags, readWait: frozenWait(traced.lat), stats: fs.srv.CacheStats(),
		goDelta: gd, heapLive: heap, storedEv: fs.res.StoredEvents}
	if err := led.run(fs.res, fs); err != nil {
		return nil, err
	}
	led.overheadPct = 100 * (median(traced.all) - median(plain.all)) / median(plain.all)
	led.layerShare = layerShare(cfg.tr, "client")
	led.report()
	return r, nil
}
