package cache

import (
	"context"
	"sync"
)

// ResultKey identifies one cached query result: the fingerprint of the
// physical plan the executor would run (internal/physical.Fingerprint
// over the main plan and every subquery plan), the strategy (S1 and
// Canonical share a physical plan but differ in execution counters),
// and the version of every referenced table rendered as a sorted
// "name@version" list. Any committed write to a referenced table
// changes its version, so stale entries stop matching by construction —
// a hit is always byte-identical to a fresh execution against the same
// snapshot. The null mode is a translation of the plan, so the
// fingerprint tells the logics apart wherever they can differ.
type ResultKey struct {
	Fingerprint uint64
	Strategy    string
	Tables      string
}

// Outcome classifies what Acquire decided for a query.
type Outcome int

const (
	// Hit: the value was served from the cache; no execution needed.
	Hit Outcome = iota
	// Owner: the caller must execute and report through Finish; any
	// concurrent identical query waits on the caller's Flight.
	Owner
	// Waiter: another query is executing this key; call Flight.Wait.
	Waiter
	// Solo: the caller must execute but neither owns a flight nor
	// fills the cache (a fault-injected query arriving while another
	// flight is in progress runs alone so its fault surfaces in it).
	Solo
)

// Flight is one in-progress execution that concurrent identical
// queries wait on (single-flight).
type Flight struct {
	done   chan struct{}
	val    any
	err    error
	closed bool // guarded by the owning cache's mutex
}

// Wait blocks until the flight owner finishes (or ctx is done) and
// returns the owner's value or error. A nil ctx waits indefinitely;
// plan dependencies cannot cycle, so the owner always finishes.
func (f *Flight) Wait(ctx context.Context) (any, error) {
	if ctx == nil {
		<-f.done
		return f.val, f.err
	}
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// resultEntry is one resident result with its invalidation index and
// shared-budget charge.
type resultEntry struct {
	val    any
	tables []string
	tuples int64
}

// ResultCache is the LRU result tier with single-flight dogpile
// protection and table-version invalidation. Cached tuples are charged
// against the DB-wide shared budget through the TryCharge/Release
// hooks, so cached rows and live queries compete for one memory pool:
// a fill the budget cannot admit evicts colder entries to make room,
// and gives up (skipping the cache) rather than over-committing.
type ResultCache struct {
	mu      sync.Mutex
	lru     *lru
	byTable map[string]map[ResultKey]struct{}
	flights map[ResultKey]*Flight

	// tryCharge/release pin and unpin cached tuples against the shared
	// execution budget; nil hooks always admit.
	tryCharge func(int64) bool
	release   func(int64)

	hits, misses, waits, evictions, invalidations int64
}

// NewResultCache returns a result cache bounded to capBytes (> 0).
// tryCharge/release, when non-nil, account cached tuples against the
// shared execution budget (exec.Budget.TryCharge / Release).
func NewResultCache(capBytes int64, tryCharge func(int64) bool, release func(int64)) *ResultCache {
	return &ResultCache{
		lru:       newLRU(capBytes),
		byTable:   make(map[string]map[ResultKey]struct{}),
		flights:   make(map[ResultKey]*Flight),
		tryCharge: tryCharge,
		release:   release,
	}
}

// Acquire decides how a query at this key proceeds. readThrough allows
// answering from a resident entry; join allows waiting on another
// query's in-progress flight. Both are false for fault-injected
// queries, which must execute so their fault surfaces in them — but
// when no flight is in progress they still become Owner, so concurrent
// clean queries coalesce behind them (and observe the owner's failure
// as their own clean error, never a poisoned entry).
//
// The miss-check and flight registration happen under one lock, so of
// N concurrent identical cold queries exactly one becomes Owner.
func (c *ResultCache) Acquire(k ResultKey, readThrough, join bool) (any, *Flight, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if readThrough {
		if e, ok := c.lru.get(k); ok {
			c.hits++
			return e.(*resultEntry).val, nil, Hit
		}
		c.misses++
	}
	if f, ok := c.flights[k]; ok {
		if join {
			c.waits++
			return nil, f, Waiter
		}
		return nil, nil, Solo
	}
	f := &Flight{done: make(chan struct{})}
	c.flights[k] = f
	return nil, f, Owner
}

// Finish completes an owned flight: the value (or error) is published
// to every waiter, and on success the value is stored — sized at bytes
// for LRU accounting and tuples for the shared budget, indexed under
// its referenced tables for invalidation. Idempotent: only the first
// call for a flight takes effect, so callers may defer a failure
// Finish as a safety net.
func (c *ResultCache) Finish(k ResultKey, f *Flight, val any, verr error, bytes, tuples int64, tables []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	f.val, f.err = val, verr
	if c.flights[k] == f {
		delete(c.flights, k)
	}
	close(f.done)
	if verr != nil || val == nil {
		return
	}
	c.storeLocked(k, val, bytes, tuples, tables)
}

func (c *ResultCache) storeLocked(k ResultKey, val any, bytes, tuples int64, tables []string) {
	if old, ok := c.lru.remove(k); ok {
		c.releaseEntryLocked(k, old.val.(*resultEntry))
	}
	// Charge the shared budget first: cached rows compete with live
	// queries for one pool, so an over-budget fill evicts colder
	// entries until the charge fits — or skips caching entirely.
	for c.tryCharge != nil && !c.tryCharge(tuples) {
		if !c.lru.evictOldest(c.onEvict) {
			return
		}
	}
	e := &resultEntry{val: val, tables: tables, tuples: tuples}
	c.lru.put(k, e, bytes, c.onEvict)
	if _, still := c.lru.items[k]; !still {
		// The entry was larger than the whole capacity and evicted
		// itself; onEvict already released its charge and index.
		return
	}
	for _, t := range tables {
		set := c.byTable[t]
		if set == nil {
			set = make(map[ResultKey]struct{})
			c.byTable[t] = set
		}
		set[k] = struct{}{}
	}
}

// onEvict releases an LRU-evicted entry's budget charge and index.
func (c *ResultCache) onEvict(key, val any, _ int64) {
	c.evictions++
	c.releaseEntryLocked(key.(ResultKey), val.(*resultEntry))
}

func (c *ResultCache) releaseEntryLocked(k ResultKey, e *resultEntry) {
	if c.release != nil {
		c.release(e.tuples)
	}
	for _, t := range e.tables {
		if set := c.byTable[t]; set != nil {
			delete(set, k)
			if len(set) == 0 {
				delete(c.byTable, t)
			}
		}
	}
}

// InvalidateTables drops every entry referencing any of the named
// tables, returning how many were dropped. Version-keyed entries can
// never be served stale even without this call; invalidating eagerly
// reclaims their memory (and budget charge) the moment a write commits.
func (c *ResultCache) InvalidateTables(names ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for _, n := range names {
		set := c.byTable[n]
		if len(set) == 0 {
			continue
		}
		keys := make([]ResultKey, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		for _, k := range keys {
			if e, ok := c.lru.remove(k); ok {
				c.releaseEntryLocked(k, e.val.(*resultEntry))
				c.invalidations++
				dropped++
			}
		}
	}
	return dropped
}

// ResetStats zeroes the tier's counters without touching its entries or
// in-progress flights — the hook behind db.ResetStats.
func (c *ResultCache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.waits, c.evictions, c.invalidations = 0, 0, 0, 0, 0
}

// Stats snapshots the tier counters.
func (c *ResultCache) Stats() TierStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TierStats{
		Hits: c.hits, Misses: c.misses, Waits: c.waits,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: c.lru.len(), Bytes: c.lru.bytes,
	}
}
