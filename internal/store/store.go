// Package store provides content-addressed result stores for the HTTP
// service: immutable result blobs keyed by the canonical config hash
// (system.Config.CanonicalHash). Because equal configs produce
// bit-identical Results, a result is a pure function of its key — there
// is no invalidation, only eviction — which makes the store safe to
// keep across restarts.
//
// Two implementations are provided: Memory, a bounded in-process LRU
// (the original server cache), and Dir, a persistent directory of
// <hash>.json blobs written atomically, so no reader observes a torn
// write. Tiered composes them front-to-back.
package store

// Store is a content-addressed result store. Get returns the stored
// blob for a canonical config hash; Put records one. Implementations
// are safe for concurrent use. Put reports I/O failures so callers can
// surface them (a persistent store on a full disk must not fail
// silently); the stored bytes are immutable — a second Put under the
// same hash only refreshes recency.
type Store interface {
	Get(hash string) ([]byte, bool)
	Put(hash string, result []byte) error
	Len() int
}

// tiered is a two-level store: a fast front (typically Memory) over an
// authoritative back (typically Dir). Gets promote back-tier hits into
// the front tier; Puts write through to both.
type tiered struct {
	fast Store
	slow Store
}

// Tiered layers a fast front store over an authoritative back store.
// Len reports the back tier's count — the authoritative population.
func Tiered(fast, slow Store) Store {
	return &tiered{fast: fast, slow: slow}
}

func (t *tiered) Get(hash string) ([]byte, bool) {
	if b, ok := t.fast.Get(hash); ok {
		return b, true
	}
	b, ok := t.slow.Get(hash)
	if ok {
		t.fast.Put(hash, b) // promotion; Memory.Put cannot fail
	}
	return b, ok
}

func (t *tiered) Put(hash string, result []byte) error {
	err := t.slow.Put(hash, result)
	t.fast.Put(hash, result)
	return err
}

func (t *tiered) Len() int { return t.slow.Len() }
