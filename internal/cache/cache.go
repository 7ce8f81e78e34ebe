// Package cache implements disqo's caching tier: a byte-accounted LRU
// core shared by the plan cache (PlanCache — parsed, translated, and
// rewritten logical plans keyed by normalized SQL, strategy, null mode
// and schema epoch) and the result cache (ResultCache — materialized
// query results keyed by physical-plan fingerprint plus the version of
// every referenced table, with single-flight dogpile protection).
//
// Invalidation leans on the copy-on-write catalog from
// internal/catalog: every DDL commit advances the schema epoch, so
// plan-cache keys stop matching after any DDL, and every commit stamps
// new per-table versions, so result-cache keys stop matching after a
// commit to any referenced table. The explicit InvalidateTables path
// exists to reclaim memory eagerly (and observably) the moment a write
// commits — correctness never depends on it.
//
// All types are safe for concurrent use.
package cache

import "container/list"

// TierStats is a point-in-time snapshot of one cache tier's counters.
type TierStats struct {
	// Hits counts lookups answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that found nothing and went on to execute.
	Misses int64 `json:"misses"`
	// Waits counts queries that joined another query's in-progress
	// execution instead of running their own (single-flight; result
	// tier only).
	Waits int64 `json:"waits,omitempty"`
	// Evictions counts entries dropped by LRU capacity or budget
	// pressure.
	Evictions int64 `json:"evictions"`
	// Invalidations counts entries dropped because a write committed to
	// a table they referenced (result tier only).
	Invalidations int64 `json:"invalidations,omitempty"`
	// Entries and Bytes describe the current residency.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// lruEntry is one resident cache entry.
type lruEntry struct {
	key   any
	val   any
	bytes int64
}

// lru is the shared byte-accounted LRU core. Not self-locking: the
// owning cache serializes access under its own mutex so lookups,
// single-flight bookkeeping, and eviction callbacks stay atomic.
type lru struct {
	capBytes int64
	bytes    int64
	ll       *list.List
	items    map[any]*list.Element
}

func newLRU(capBytes int64) *lru {
	return &lru{capBytes: capBytes, ll: list.New(), items: make(map[any]*list.Element)}
}

// get returns the entry and marks it most recently used.
func (l *lru) get(key any) (any, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts (or replaces) an entry, then evicts least-recently-used
// entries until the byte capacity holds, reporting each eviction to
// onEvict. An entry larger than the whole capacity is evicted
// immediately — the cache never over-commits.
func (l *lru) put(key, val any, bytes int64, onEvict func(key, val any, bytes int64)) {
	if el, ok := l.items[key]; ok {
		old := el.Value.(*lruEntry)
		l.bytes += bytes - old.bytes
		old.val, old.bytes = val, bytes
		l.ll.MoveToFront(el)
	} else {
		l.items[key] = l.ll.PushFront(&lruEntry{key: key, val: val, bytes: bytes})
		l.bytes += bytes
	}
	for l.capBytes > 0 && l.bytes > l.capBytes {
		if !l.evictOldest(onEvict) {
			return
		}
	}
}

// evictOldest drops the least-recently-used entry, reporting it to
// onEvict; false when the cache is empty.
func (l *lru) evictOldest(onEvict func(key, val any, bytes int64)) bool {
	el := l.ll.Back()
	if el == nil {
		return false
	}
	e := el.Value.(*lruEntry)
	l.removeElement(el)
	if onEvict != nil {
		onEvict(e.key, e.val, e.bytes)
	}
	return true
}

// remove drops one entry by key, returning it.
func (l *lru) remove(key any) (*lruEntry, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*lruEntry)
	l.removeElement(el)
	return e, true
}

func (l *lru) removeElement(el *list.Element) {
	e := el.Value.(*lruEntry)
	l.ll.Remove(el)
	delete(l.items, e.key)
	l.bytes -= e.bytes
}

func (l *lru) len() int { return l.ll.Len() }
