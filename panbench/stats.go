package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it sorts in place. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// beyond reports how many of n samples lie above the p-th percentile: a
// percentile is supported when at least ten samples lie beyond it.
func beyond(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), sorting xs in place; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapLiveBytes forces two collections and returns the heap retained
// afterwards: everything still reachable from the caller's live values.
func heapLiveBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeNames are the Go runtime metrics (stdlib runtime/metrics) the
// traced run reports as the go.* layer.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// goSnapshot is one reading of runtimeNames.
type goSnapshot []metrics.Sample

func readGo() goSnapshot {
	s := make(goSnapshot, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// goDelta is the Go runtime's share of the work between two snapshots.
type goDelta struct {
	GCCPUFraction float64 // GC CPU time over all CPU time
	AllocMB       float64 // bytes allocated
	NumGC         float64 // completed GC cycles
	PauseP99us    float64 // 99th percentile stop-the-world GC pause
}

func diffGo(a, b goSnapshot) goDelta {
	var d goDelta
	if total := b[1].Value.Float64() - a[1].Value.Float64(); total > 0 {
		d.GCCPUFraction = (b[0].Value.Float64() - a[0].Value.Float64()) / total
	}
	d.AllocMB = float64(b[2].Value.Uint64()-a[2].Value.Uint64()) / 1e6
	d.NumGC = float64(b[3].Value.Uint64() - a[3].Value.Uint64())
	ha, hb := a[4].Value.Float64Histogram(), b[4].Value.Float64Histogram()
	var n uint64
	counts := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		n += counts[i]
	}
	if n > 0 {
		rank := uint64(math.Ceil(0.99 * float64(n)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= rank {
				// Buckets[i+1] is the bucket's upper bound; the last bucket
				// is open-ended, so fall back to its lower bound.
				hi := hb.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = hb.Buckets[i]
				}
				d.PauseP99us = hi * 1e6
				break
			}
		}
	}
	return d
}
