package metastore

// arenaChunkShift sizes arena chunks at 1<<arenaChunkShift records. Chunks
// are never reallocated once handed out, so record pointers returned by put
// stay valid for the store's lifetime — the property the whole query API
// (which traffics in *records.X) depends on.
const arenaChunkShift = 10

const arenaChunkSize = 1 << arenaChunkShift

// arena is a chunked slab allocator for record structs: records live
// contiguously in fixed-size chunks instead of as individual heap objects,
// which removes the per-record allocation header, keeps one shard's records
// adjacent in memory for the matcher's scans.
type arena[T any] struct {
	chunks [][]T
	n      int // rows in use
}

// put copies v into the next slot and returns its stable address.
func (a *arena[T]) put(v T) *T {
	ci, off := a.n>>arenaChunkShift, a.n&(arenaChunkSize-1)
	if off == 0 && ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunkSize))
	}
	p := &a.chunks[ci][off]
	*p = v
	a.n++
	return p
}

// at returns the address of row i (0 <= i < len()).
func (a *arena[T]) at(i int) *T {
	return &a.chunks[i>>arenaChunkShift][i&(arenaChunkSize-1)]
}

// len reports the rows in use.
func (a *arena[T]) len() int { return a.n }
