package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"time"

	"panrucio/internal/core"
	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/serve"
)

// kind is one request shape of the read mix.
type kind int

const (
	kMatchExact kind = iota
	kMatchRM1
	kMatchRM2
	kJob
	kTask
	kHit   // a cached /api/experiments/{id} body
	kRates // /api/experiments/rates at the current live epoch
)

// route names the server endpoint a kind exercises (the serve.*_us
// per-layer metrics are per route).
func (k kind) route() string {
	switch k {
	case kMatchExact, kMatchRM1, kMatchRM2:
		return "match"
	case kJob:
		return "job"
	case kTask:
		return "task"
	case kHit:
		return "hit"
	}
	return "rates"
}

var matchMethod = map[kind]core.Method{kMatchExact: core.Exact, kMatchRM1: core.RM1, kMatchRM2: core.RM2}

// The endpoint weights of both read mixes are cmd/loadgen's defaultMix
// (experiments=6, job=4, match=4, task=2), restricted to the endpoints
// the workloads use; like loadgen, a match request picks its method
// uniformly.
const (
	weightHit   = 6
	weightJob   = 4
	weightMatch = 4
	weightTask  = 2
)

// mixTable expands endpoint weights into a table a drawer picks from
// uniformly. Each weight is tripled so the match weight splits evenly
// over the three methods.
func mixTable(hit, job, match, task int) []kind {
	var t []kind
	for _, e := range []struct {
		k kind
		n int
	}{
		{kHit, 3 * hit}, {kJob, 3 * job}, {kTask, 3 * task},
		{kMatchExact, match}, {kMatchRM1, match}, {kMatchRM2, match},
	} {
		for range e.n {
			t = append(t, e.k)
		}
	}
	return t
}

// frozenMix is the query-frozen request mix: cached experiment bodies,
// job lookups, match probes and task lookups at 6:4:4:2.
var frozenMix = mixTable(weightHit, weightJob, weightMatch, weightTask)

// hitIDs are the experiment bodies query-frozen serves from cache. Every
// store-derived experiment is included; e14 and e15 run their own sweeps
// and are left out. rates comes first: a fresh server builds the suite
// for it, which is the uncached body serve.body_ms times.
var hitIDs = []string{
	"rates", "summary", "fig2", "fig3", "table1", "table2a", "table2b",
	"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"checks", "anomaly",
}

// target is a job a point read asks about.
type target struct{ panda, jedi int64 }

// request is one read, ready to send.
type request struct {
	kind kind
	t    target
	hit  string
}

func (q request) path() string {
	switch q.kind {
	case kMatchExact, kMatchRM1, kMatchRM2:
		return fmt.Sprintf("/api/match?panda=%d&method=%s", q.t.panda, methodParam(matchMethod[q.kind]))
	case kJob:
		return fmt.Sprintf("/api/job?panda=%d", q.t.panda)
	case kTask:
		return fmt.Sprintf("/api/task?jedi=%d", q.t.jedi)
	case kHit:
		return "/api/experiments/" + q.hit
	}
	return "/api/experiments/rates"
}

func methodParam(m core.Method) string {
	switch m {
	case core.Exact:
		return "exact"
	case core.RM1:
		return "rm1"
	}
	return "rm2"
}

// recorder is a minimal, reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *recorder) reset() {
	clear(w.header)
	w.code = 0
	w.body.Reset()
}

// newRequest builds the *http.Request for a read; its construction is
// kept outside the timed call.
func newRequest(q request) *http.Request {
	u, err := url.Parse(q.path())
	if err != nil {
		panic(err) // paths are built above from integers and fixed ids
	}
	return &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, RequestURI: u.RequestURI(), Host: "panbench"}
}

// sample is a response kept for checking after the timed region.
type sample struct {
	q    request
	body []byte
}

// sampleEvery is the stride at which responses are kept for checking.
const sampleEvery = 61

// maxSamples caps the responses one client keeps for checking.
const maxSamples = 500

// drawer picks requests of a mix with targets drawn uniformly from a job
// list, from its own seeded generator.
type drawer struct {
	rng  *rand.Rand
	mix  []kind
	jobs []target
}

func newDrawer(seed int64, stream int, mix []kind, jobs []target) *drawer {
	return &drawer{rng: rand.New(rand.NewSource(seed*7919 + int64(stream))), mix: mix, jobs: jobs}
}

// next draws a request whose target is one of the first n jobs; with
// n = 0 it has no target.
func (d *drawer) next(n int) request {
	q := request{kind: d.mix[d.rng.Intn(len(d.mix))]}
	if n > 0 {
		q.t = d.jobs[d.rng.Intn(n)]
	}
	if q.kind == kHit {
		q.hit = hitIDs[d.rng.Intn(len(hitIDs))]
	}
	return q
}

// jobView mirrors the body of /api/job and /api/match.
type jobView struct {
	Job       records.JobRecord
	Method    string
	Matched   int
	Transfers []records.TransferEvent
	Files     []records.FileRecord
}

// taskView mirrors the body of /api/task.
type taskView struct {
	JediTaskID int64
	Total      int
	Transfers  []records.TransferEvent
}

// checkSample compares a kept response with the store and matcher called
// directly, and with the body of a cached experiment as first served.
func checkSample(s sample, store *metastore.Store, hits map[string][]byte) error {
	switch s.q.kind {
	case kJob, kMatchExact, kMatchRM1, kMatchRM2:
		var v jobView
		if err := json.Unmarshal(s.body, &v); err != nil {
			return fmt.Errorf("%s: %v", s.q.path(), err)
		}
		j, ok := store.Job(s.q.t.panda)
		if !ok || v.Job != *j {
			return fmt.Errorf("%s: job row differs from Store.Job", s.q.path())
		}
		if s.q.kind == kJob {
			want := store.FilesForJob(j.PandaID, j.JediTaskID)
			if !slices.EqualFunc(v.Files, want, func(a records.FileRecord, b *records.FileRecord) bool { return a == *b }) {
				return fmt.Errorf("%s: files differ from Store.FilesForJob", s.q.path())
			}
			return nil
		}
		want := core.NewMatcher(store).MatchJob(j, matchMethod[s.q.kind])
		if v.Matched != len(want) || !slices.EqualFunc(v.Transfers, want,
			func(a records.TransferEvent, b *records.TransferEvent) bool { return a == *b }) {
			return fmt.Errorf("%s: %d matched transfers, MatchJob gives %d", s.q.path(), v.Matched, len(want))
		}
	case kTask:
		var v taskView
		if err := json.Unmarshal(s.body, &v); err != nil {
			return fmt.Errorf("%s: %v", s.q.path(), err)
		}
		want := store.TransfersByTaskID(s.q.t.jedi)
		if v.Total != len(want) {
			return fmt.Errorf("%s: total %d, TransfersByTaskID gives %d", s.q.path(), v.Total, len(want))
		}
		for i, ev := range v.Transfers {
			if ev != *want[i] {
				return fmt.Errorf("%s: transfer %d differs from TransfersByTaskID", s.q.path(), i)
			}
		}
	case kHit:
		if !bytes.Equal(s.body, hits[s.q.hit]) {
			return fmt.Errorf("%s: cached body differs from the first one served", s.q.path())
		}
	}
	return nil
}

// get serves one request in-process and returns status, body and the
// time spent in ServeHTTP.
func get(srv *serve.Server, w *recorder, q request) (int, time.Duration) {
	req := newRequest(q)
	w.reset()
	t0 := time.Now()
	srv.ServeHTTP(w, req)
	return w.code, time.Since(t0)
}
