// Package storetest provides the deterministic fuzzed put streams and
// result-flattening helpers shared by the store-level equivalence tests —
// shard-count equivalence, the mid-run cut-point suite, and the
// segment-merge fuzz target — so each new test layer reuses one generator
// instead of copying it.
//
// A Stream is a pseudo-random but fully deterministic interleaving of job,
// file, and transfer puts designed to stress the store's invariants:
// duplicate pandaids, task-less background events, arbitrary
// (non-monotonic) event ids, heavy time-key ties, join keys shared across
// tasks, file-size jitter, and endpoint labels drawn from a small pool so
// the matcher's site conditions bite. Streams can be replayed whole or cut
// at any prefix, which is what the incremental-ingest tests build on: a
// store fed a prefix must answer every query exactly like a fresh store
// fed the same prefix.
package storetest

import (
	"fmt"
	"math/rand"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// Sites is the endpoint-label pool Make draws from; jobs only ever run at
// the first two, so UNKNOWN endpoints exercise the RM2 relaxation.
var Sites = []string{"CERN-PROD", "BNL-ATLAS", "UNKNOWN"}

// Stream is a recorded put interleaving. Replay it with Ingest or
// IngestPrefix; the stream itself is immutable and safe to replay into any
// number of stores.
type Stream struct {
	jobs  []records.JobRecord
	files []records.FileRecord
	evs   []records.TransferEvent
	puts  []int // interleave: 0=job, 1=file, 2=transfer, in stream order
}

// Make generates a deterministic stream of n puts from the seed. The value
// pools are deliberately tiny — task ids in [0,17), pandaids in [0,40),
// 25 LFNs, 5 datasets, 2 file sizes, 20 time ticks — so shard collisions,
// duplicate keys, and time ties are guaranteed at any stream length.
func Make(seed int64, n int) *Stream {
	rng := rand.New(rand.NewSource(seed))
	st := &Stream{}
	labels := []records.SourceLabel{records.LabelUser, records.LabelManaged}
	acts := []records.Activity{records.AnalysisDownload, records.ProductionUp, records.DataRebalancing}
	for i := 0; i < n; i++ {
		task := int64(rng.Intn(17)) // small pool → many shard collisions, incl. 0
		switch k := rng.Intn(4); k {
		case 0:
			st.jobs = append(st.jobs, records.JobRecord{
				PandaID:         int64(rng.Intn(40)), // duplicates guaranteed
				JediTaskID:      task,
				Label:           labels[rng.Intn(2)],
				ComputingSite:   Sites[rng.Intn(2)], // jobs never run at UNKNOWN
				CreationTime:    simtime.VTime(rng.Intn(5)),
				StartTime:       simtime.VTime(rng.Intn(10)),
				EndTime:         simtime.VTime(rng.Intn(20)), // heavy EndTime ties
				NInputFileBytes: int64(rng.Intn(4)) * 1e9,
			})
			st.puts = append(st.puts, 0)
		case 1:
			st.files = append(st.files, records.FileRecord{
				PandaID:    int64(rng.Intn(40)),
				JediTaskID: task,
				LFN:        fmt.Sprintf("f%d", rng.Intn(25)),
				Scope:      "s",
				Dataset:    fmt.Sprintf("d%d", rng.Intn(5)),
				ProdDBlock: "p",
				FileSize:   int64(1+rng.Intn(2)) * 1e9,
				Kind:       records.FileInput,
			})
			st.puts = append(st.puts, 1)
		default:
			if rng.Intn(3) == 0 {
				task = 0 // task-less background event
			}
			ev := records.TransferEvent{
				EventID:         int64(rng.Intn(1 << 30)), // arbitrary, non-monotonic
				JediTaskID:      task,
				LFN:             fmt.Sprintf("f%d", rng.Intn(25)),
				Scope:           "s",
				Dataset:         fmt.Sprintf("d%d", rng.Intn(5)),
				ProdDBlock:      "p",
				FileSize:        int64(1+rng.Intn(2)) * 1e9,
				SourceSite:      Sites[rng.Intn(3)],
				DestinationSite: Sites[rng.Intn(3)],
				Activity:        acts[rng.Intn(3)],
				StartedAt:       simtime.VTime(rng.Intn(20)), // heavy StartedAt ties
				EndedAt:         simtime.VTime(20 + rng.Intn(20)),
			}
			if rng.Intn(2) == 0 {
				ev.IsDownload = true
			} else {
				ev.IsUpload = true
			}
			st.evs = append(st.evs, ev)
			st.puts = append(st.puts, 2)
		}
	}
	return st
}

// Len reports the number of puts in the stream.
func (st *Stream) Len() int { return len(st.puts) }

// Ingest replays the whole stream into the store in its recorded order.
// It does not Freeze — callers pin the frozen or the live query path
// explicitly.
func (st *Stream) Ingest(s *metastore.Store) { st.IngestPrefix(s, st.Len()) }

// IngestPrefix replays the first k puts of the stream into the store —
// the cut-point primitive of the mid-run equivalence tests.
func (st *Stream) IngestPrefix(s *metastore.Store, k int) { st.IngestRange(s, 0, k) }

// IngestRange replays puts [from, to) of the stream into the store. A
// store fed [0, a) then [a, b) holds exactly the prefix [0, b), which is
// how the cut-point tests advance one live store through successive cuts.
func (st *Stream) IngestRange(s *metastore.Store, from, to int) {
	var j, f, e int
	for _, kind := range st.puts[:from] {
		switch kind {
		case 0:
			j++
		case 1:
			f++
		default:
			e++
		}
	}
	for _, kind := range st.puts[from:to] {
		switch kind {
		case 0:
			s.PutJob(&st.jobs[j])
			j++
		case 1:
			s.PutFile(&st.files[f])
			f++
		default:
			s.PutTransfer(&st.evs[e])
			e++
		}
	}
}

// EvValues flattens a query result to comparable values (stores copy
// records into their own arenas, so pointer identity never matches across
// stores).
func EvValues(evs []*records.TransferEvent) []records.TransferEvent {
	out := make([]records.TransferEvent, len(evs))
	for i, ev := range evs {
		out[i] = *ev
	}
	return out
}

// JobValues flattens a job query result to comparable values.
func JobValues(js []*records.JobRecord) []records.JobRecord {
	out := make([]records.JobRecord, len(js))
	for i, j := range js {
		out[i] = *j
	}
	return out
}
