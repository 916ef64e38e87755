package metastore

// internTable assigns dense uint32 symbols to strings and owns their
// canonical backing. Every string attribute that enters the store flows
// through it once at ingest: join attributes (lfn/scope/dataset/proddblock)
// get symbols so the join indices can be keyed by 16-byte value structs
// instead of 64-byte string quadruples, and repeated site/RSE/activity
// strings collapse onto one backing array regardless of how the producer
// built them (the corruption layer, in particular, rewrites labels with
// fresh allocations).
//
// The table is store-global, written only on the single-threaded ingest
// path, and read-only during Freeze and queries — per-shard freeze
// goroutines may look up symbols concurrently without locking.
type internTable struct {
	ids  map[string]uint32
	strs []string
}

func newInternTable() *internTable {
	return &internTable{ids: make(map[string]uint32)}
}

// sym returns the symbol for s, assigning the next dense id on first sight.
// Symbols are assigned in first-ingest order, so they are deterministic for
// a given put stream and independent of the shard count.
func (t *internTable) sym(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// canon returns the canonical backing for s, interning it if new. Storing
// the canonical string in a record lets duplicate producer-side backings be
// collected.
func (t *internTable) canon(s string) string {
	return t.strs[t.sym(s)]
}

// lookup resolves a symbol without interning — the query-side probe. A miss
// means no record carrying s was ever ingested.
func (t *internTable) lookup(s string) (uint32, bool) {
	id, ok := t.ids[s]
	return id, ok
}

// size reports the number of interned strings.
func (t *internTable) size() int { return len(t.strs) }

// symKey is the interned form of JoinKey: 16 bytes of dense symbols in
// place of four string headers, hashed as plain memory.
type symKey struct {
	lfn, scope, dataset, prodDBlock uint32
}

// taskSymKey scopes a symKey to one JEDI task — the interned form of the
// matcher's per-file probe key.
type taskSymKey struct {
	task int64
	key  symKey
}
