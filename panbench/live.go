package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/serve"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

// liveEvery is the live server's checkpoint interval: 191 read windows
// over the 8-day run, then the final publish.
const liveEvery = simtime.Hour

// liveRate is the open-loop read rate, requests per second. It sits below
// the rate at which the two clients stop keeping up with the read
// windows, so the backlog stays bounded over the run (README.md).
const liveRate = 10

// liveMix is serve-live's point-read mix: job lookups, match probes and
// task lookups at 4:4:2. The experiments weight is left out; rates reads
// take fixed slots instead (ratesEvery).
var liveMix = mixTable(0, weightJob, weightMatch, weightTask)

// ratesEvery fixes the share of /api/experiments/rates reads: every
// ratesEvery-th slot of the schedule. A fixed slot, not a random draw,
// keeps their count — and the read-window stalls each one causes — the
// same in every run. Each stall delays the point reads queued behind it
// by 100-250 ms; at one slot in 21 those reads made up about the top 5%
// and the p95 swung between seeds from 156 to 224 ms, at one in 63 it
// stays within 136-158 ms.
const ratesEvery = 63

// livePlan orders the window's user jobs by the virtual time their task's
// records reach the store (a task's job and file rows are emitted when
// its last job ends), so a live reader asks only for jobs that are
// already there.
type livePlan struct {
	emit []simtime.VTime
	jobs []target
}

func newLivePlan(res *sim.Result) livePlan {
	all := res.Store.Jobs(math.MinInt64, math.MaxInt64, "")
	taskEnd := map[int64]simtime.VTime{}
	for _, j := range all {
		taskEnd[j.JediTaskID] = max(taskEnd[j.JediTaskID], j.EndTime)
	}
	window := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	idx := make([]int, len(window))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return taskEnd[window[idx[a]].JediTaskID] < taskEnd[window[idx[b]].JediTaskID]
	})
	p := livePlan{emit: make([]simtime.VTime, len(idx)), jobs: make([]target, len(idx))}
	for i, k := range idx {
		j := window[k]
		p.emit[i] = taskEnd[j.JediTaskID]
		p.jobs[i] = target{j.PandaID, j.JediTaskID}
	}
	return p
}

// present is how many planned jobs are in the store at checkpoint vt.
func (p livePlan) present(vt simtime.VTime) int {
	return sort.Search(len(p.emit), func(i int) bool { return p.emit[i] >= vt })
}

// liveRead is one completed read of the live run.
type liveRead struct {
	route string
	due   time.Duration // after the run started
	lat   float64       // ms, from the time the read was due
	lag   float64       // ms, from the time the read was due to its send
}

// liveOut is what one live run measured.
type liveOut struct {
	srv      *serve.Server
	wall     time.Duration // NewLive until Done
	points   []liveRead
	rates    []float64 // ms from due time
	lags     []float64 // send time minus due time, ms, for every read
	n        int64
	failed   []string
	samples  []sample
	freezes  ckptStats // the server's freezes, from the metastore histogram
	goDelta  goDelta
	maxEpoch uint64
}

// liveRun starts a live server on cfg and reads from it in an open loop
// at liveRate until the run is done. Two client goroutines take alternate
// slots of one schedule; a read is timed from its due time, so a read
// that waits behind a blocked one counts that wait.
func liveRun(cfg sim.Config, plan livePlan, seed int64, tr *tracer) liveOut {
	var o liveOut
	n0, s0 := freezeHist.Count(), freezeHist.Sum()
	g0 := readGo()
	interval := time.Second / liveRate
	start := time.Now()
	runRoot := tr.begin("live.run", -1, 0)
	o.srv = serve.NewLive(cfg, liveEvery, serve.Options{})
	done := make(chan struct{})
	go func() {
		<-o.srv.Done()
		o.wall = time.Since(start)
		tr.end(runRoot)
		close(done)
	}()

	outs := make([]liveOut, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			co := &outs[c]
			d := newDrawer(seed, 300+c, liveMix, plan.jobs)
			w := newRecorder()
			timer := time.NewTimer(0)
			defer timer.Stop()
			root := tr.begin("client", -1, int64(c))
			defer tr.end(root)
			for k := c; ; k += clients {
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					timer.Reset(wait)
					select {
					case <-done:
						return
					case <-timer.C:
					}
				}
				select {
				case <-done:
					return
				default:
				}
				// Reads are served at the current epoch or a later one, so
				// a job present at this epoch's checkpoint is present then.
				epoch := o.srv.Epoch()
				avail := plan.present(simtime.VTime(max(epoch, 1)) * liveEvery)
				q := d.next(avail)
				if k%ratesEvery == ratesEvery-1 {
					q.kind = kRates
				} else if avail == 0 {
					// No job is in the store yet; a task read is answered
					// for any task id.
					q.kind, q.t = kTask, plan.jobs[d.rng.Intn(len(plan.jobs))]
				}
				req := newRequest(q)
				w.reset()
				send := time.Now()
				sp := tr.begin("serve."+q.kind.route(), root, int64(k))
				o.srv.ServeHTTP(w, req)
				tr.end(sp)
				lat := ms(time.Since(due))
				co.n++
				co.lags = append(co.lags, ms(send.Sub(due)))
				if q.kind == kRates {
					co.rates = append(co.rates, lat)
				} else {
					co.points = append(co.points, liveRead{q.kind.route(), due.Sub(start), lat, ms(send.Sub(due))})
				}
				if w.code != http.StatusOK {
					co.failed = append(co.failed, fmt.Sprintf("%s at epoch %d: status %d", q.path(), epoch, w.code))
				} else if q.kind == kJob && (k/clients)%4 == 0 {
					co.samples = append(co.samples, sample{q, bytes.Clone(w.body.Bytes())})
				}
				co.maxEpoch = max(co.maxEpoch, epoch)
			}
		}(c)
	}
	wg.Wait()
	<-done
	o.goDelta = diffGo(g0, readGo())
	o.freezes.count = int(freezeHist.Count() - n0)
	o.freezes.sum = time.Duration((freezeHist.Sum() - s0) * float64(time.Second))
	for _, co := range outs {
		o.n += co.n
		o.points = append(o.points, co.points...)
		o.rates = append(o.rates, co.rates...)
		o.lags = append(o.lags, co.lags...)
		o.failed = append(o.failed, co.failed...)
		o.samples = append(o.samples, co.samples...)
		o.maxEpoch = max(o.maxEpoch, co.maxEpoch)
	}
	return o
}

// lagHalves splits the point reads' lags by whether the read was due in
// the first or the second half of the run: a growing backlog shows as a
// later half that lags more.
func (o liveOut) lagHalves() (early, late []float64) {
	for _, p := range o.points {
		if p.due < o.wall/2 {
			early = append(early, p.lag)
		} else {
			late = append(late, p.lag)
		}
	}
	return early, late
}

func (o liveOut) pointLat() []float64 {
	out := make([]float64, len(o.points))
	for i, p := range o.points {
		out[i] = p.lat
	}
	return out
}

// account adds the live run's reads and checks to the report: every read
// must be 200, sampled job bodies must equal the reference store's rows
// (a job's rows never change once stored), and the final epoch's rates
// and checks must equal those of a frozen server over sim.Run of the same
// config. It returns the shape checks the live server passed.
func (o liveOut) account(r *report, ref *frozenState) int {
	r.attempted += o.n
	for _, f := range o.failed {
		r.fail("%s", f)
	}
	for _, s := range o.samples {
		err := checkSample(s, ref.res.Store, nil)
		r.check(err == nil, "%v", err)
	}
	w := newRecorder()
	passed := 0
	for _, id := range []string{"rates", "checks"} {
		code, _ := get(o.srv, w, request{kind: kHit, hit: id})
		r.check(code == http.StatusOK, "final /api/experiments/%s: status %d", id, code)
		if code != http.StatusOK {
			continue
		}
		got, want := bodyFields(w.body.Bytes(), id), bodyFields(ref.hits[id], id)
		r.check(got != nil && bytes.Equal(got, want),
			"final-epoch %s body differs from a frozen server over sim.Run of the same config", id)
		if id == "checks" {
			n, err := checksPassed(w.body.Bytes())
			r.check(err == nil, "%v", err)
			passed = n
		}
	}
	return passed
}

// bodyFields returns the digest and payload of an experiment body — all
// of it but the epoch, which counts publishes and so differs between a
// live and a frozen server by design.
func bodyFields(body []byte, id string) []byte {
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		return nil
	}
	return slices.Concat(m["digest"], []byte{0}, m[id])
}

// refSetup builds serve-live's reference: sim.Run of the live config, a
// frozen server over it (the expected final bodies) and the read plan.
func refSetup(cfg sim.Config) (*frozenState, livePlan, error) {
	res := sim.Run(cfg)
	fs, err := newFrozen(res, nil, -1, 0)
	if err != nil {
		return nil, livePlan{}, err
	}
	return fs, newLivePlan(res), nil
}

// runLive is the serve-live workload: a live server running the 8-day
// scenario with a checkpoint every virtual hour, under an open-loop read
// load.
func runLive(cfg runCfg) (*report, error) {
	r := &report{}
	paper := sim.PaperConfig(cfg.seed)
	if cfg.trace {
		return traceLive(cfg, r, paper)
	}
	var ref *frozenState
	var plan livePlan
	var setups []float64
	for i := 0; i < setupReps; i++ {
		ref = nil
		t0 := time.Now()
		var err error
		if ref, plan, err = refSetup(paper); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Live runs repeat while the measured time lasts; their point reads
	// are pooled.
	var walls, lat, lags, early, late []float64
	var reads, rates int64
	var o liveOut
	passed := 0
	var elapsed time.Duration
	for elapsed < time.Duration(cfg.seconds*float64(time.Second)) {
		o = liveOut{} // let the previous server go before the next run
		runtime.GC()
		o = liveRun(paper, plan, cfg.seed, nil)
		passed = o.account(r, ref)
		elapsed += o.wall
		walls = append(walls, o.wall.Seconds())
		lat = append(lat, o.pointLat()...)
		lags = append(lags, o.lags...)
		e, l := o.lagHalves()
		early, late = append(early, e...), append(late, l...)
		reads += o.n
		rates += int64(len(o.rates))
		r.note("live run %d: %.2f s, %d reads, epochs seen up to %d, server freezes %d summing %.0f ms",
			len(walls), o.wall.Seconds(), o.n, o.maxEpoch, o.freezes.count, ms(o.freezes.sum))
	}
	events := float64(ref.res.StoredEvents)
	ref = nil
	heap := heapLiveBytes() // the last live server and its final store
	runtime.KeepAlive(o.srv)
	wall := median(walls)
	// The tail is p90, with about 30 pooled reads beyond it. The p95 has
	// about 15, enough by count, but on a shared host those are the reads
	// queued behind a few seconds of host slowdown late in a run, and it
	// moved by up to 45% between runs where the p90 moved by about 10%.
	p50, p90 := percentile(lat, 50), percentile(lat, 90)
	r.note("%d reads at %d/s: %d point reads (%d beyond p90; p95 %.1f ms with %d beyond), %d rates reads; "+
		"lag p50/p99 %.1f/%.1f ms (reads due in the first half of each run %.1f/%.1f ms, second half %.1f/%.1f ms)",
		reads, liveRate, len(lat), beyond(len(lat), 90), percentile(lat, 95), beyond(len(lat), 95), rates,
		percentile(lags, 50), percentile(lags, 99),
		percentile(early, 50), percentile(early, 99), percentile(late, 50), percentile(late, 99))
	r.addNamed("live_run_s", wall, "s")
	r.addNamed("live_read_p50_ms", p50, "ms")
	r.addNamed("live_read_p90_ms", p90, "ms")
	r.addE2E("setup_s", median(setups), "s")
	r.addE2E("latency_p50_ms", p50, "ms")
	r.addE2E("latency_tail_ms", p90, "ms")
	r.addE2E("throughput_per_s", events/wall, "1/s")
	r.addE2E("heap_live_mb", float64(heap)/1e6, "MB")
	o = liveOut{} // let the live server go before the gate's reproduction
	gateChecks(r, cfg.seed, passed)
	return r, nil
}

// traceLive is serve-live's traced run. Its reference run is observed
// through sim.RunWithObserver at the server's checkpoint interval, with
// an observer that does and times the same Freeze the server does; then
// one live run untraced and one traced.
func traceLive(cfg runCfg, r *report, paper sim.Config) (*report, error) {
	var ck ckptStats
	var observed time.Duration
	n0, s0 := freezeHist.Count(), freezeHist.Sum()
	root := cfg.tr.begin("sim.run_observed", -1, -4)
	t0 := time.Now()
	res := sim.RunWithObserver(paper, liveEvery, func(_ simtime.VTime, st *metastore.Store) {
		t1 := time.Now()
		sp := cfg.tr.begin("metastore.ckpt_freeze", root, -4)
		st.Freeze()
		cfg.tr.end(sp)
		ck.last = time.Since(t1)
		observed += ck.last
	})
	wall := time.Since(t0)
	cfg.tr.end(root)
	ck.count = int(freezeHist.Count() - n0)
	ck.sum = time.Duration((freezeHist.Sum() - s0) * float64(time.Second))

	fs, err := newFrozen(res, cfg.tr, -1, -4)
	if err != nil {
		return nil, err
	}
	plan := newLivePlan(res)
	heap := heapLiveBytes() // the 8-day store and a frozen server over it
	plain := liveRun(paper, plan, cfg.seed, nil)
	plain.account(r, fs)
	plainWall := plain.wall
	plain = liveOut{}
	o := liveRun(paper, plan, cfg.seed, cfg.tr)
	o.account(r, fs)
	r.note("server freezes during the traced live run: %d summing %.0f ms (observer run: %d, %.0f ms)",
		o.freezes.count, ms(o.freezes.sum), ck.count, ms(ck.sum))

	led := &ledger{r: r, tr: cfg.tr, seed: cfg.seed, simRun: wall - observed, freezes: ck,
		goDelta: o.goDelta, heapLive: heap, storedEv: res.StoredEvents, lags: o.lags, livePoints: o.points}
	if err := led.run(res, fs); err != nil {
		return nil, err
	}
	led.overheadPct = 100 * (o.wall.Seconds() - plainWall.Seconds()) / plainWall.Seconds()
	led.layerShare = layerShare(cfg.tr, "client")
	led.report()
	return r, nil
}
