package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// maxSpans caps the in-memory span buffer. A query-frozen traced run
// issues about 10^6 requests; spans past the cap are counted, not kept,
// so neither memory nor the written trace grows without bound.
const maxSpans = 200_000

// span is one timed call into a layer, recorded from this package around
// the public entry point it calls. Group ties together the spans of one
// request or one run; Parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Group  int64  `json:"group"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out when the run ends. A
// tracer that is off records nothing: begin returns -1 and end ignores it,
// so the untraced path pays one branch per call site.
type tracer struct {
	on      bool
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off or the
// buffer is full).
func (t *tracer) begin(name string, parent int32, group int64) int32 {
	if t == nil || !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Group: group, ID: id, Parent: parent, Start: now, End: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name  string
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus time covered by child spans
}

// selfTimes returns per-name totals and self times. A span's self time is
// its duration minus the union of its children's intervals, so
// overlapping children (parallel workers) are not subtracted twice.
func (t *tracer) selfTimes() []layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerStat{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(children[s.ID])
	}
	out := make([]layerStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, k int) bool { return spans[i].Start < spans[k].Start })
	var total int64
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return time.Duration(total + hi - lo)
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// layerShare is the summed self time of every span below the spans named
// rootName, over the summed duration of those roots: the share of the
// measured end-to-end time that the traced layer calls account for.
func layerShare(t *tracer, rootName string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var rootTime, layerTime time.Duration
	var walk func(id int32)
	walk = func(id int32) {
		for _, c := range children[id] {
			layerTime += c.dur() - covered(slices.Clone(children[c.ID]))
			walk(c.ID)
		}
	}
	for _, s := range t.spans {
		if s.Name == rootName {
			rootTime += s.dur()
			walk(s.ID)
		}
	}
	if rootTime == 0 {
		return 0
	}
	return float64(layerTime) / float64(rootTime)
}
