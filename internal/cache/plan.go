package cache

import "sync"

// PlanKey identifies one cached plan. SQL is the normalized statement
// text; Nulls ("3vl"/"2vl") says whether it was translated to two-valued
// logic; CatalogVersion holds the catalog's schema epoch
// (catalog.Snapshot.SchemaEpoch), which only DDL and a state restore
// advance, so a plan built over other table or view definitions simply
// stops matching rather than needing eager invalidation. DML does not
// move it: a plan reads rows only from the snapshot it runs on, so a
// write cannot make one wrong. That a write can make one expensive —
// its estimates aged — is the caller's freshness test (Lookup), not
// the key's.
type PlanKey struct {
	SQL            string
	Strategy       string
	Nulls          string
	CatalogVersion uint64
}

// PlanCache is the LRU plan tier: it stores the output of parse +
// translate + rewrite + lower (an immutable logical tree, its rewrite
// trace and the physical plan) so repeated statements skip planning
// entirely. Values are opaque to the cache; the caller accounts their
// size in bytes.
type PlanCache struct {
	mu                      sync.Mutex
	lru                     *lru
	hits, misses, evictions int64
}

// NewPlanCache returns a plan cache bounded to capBytes (> 0).
func NewPlanCache(capBytes int64) *PlanCache {
	return &PlanCache{lru: newLRU(capBytes)}
}

// Get returns the cached plan for the key, if present.
func (c *PlanCache) Get(k PlanKey) (any, bool) { return c.Lookup(k, nil) }

// Lookup is Get with a freshness test: a resident plan that fresh
// rejects is not returned and counts as a miss, and it stays resident
// until the caller's Put under the same key replaces it in place. A nil
// fresh accepts every plan. fresh runs under the cache's lock, so it
// must be quick and must not call back into the cache.
func (c *PlanCache) Lookup(k PlanKey, fresh func(any) bool) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lru.get(k)
	if ok && fresh != nil && !fresh(v) {
		v, ok = nil, false
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put stores a plan under the key, charging bytes against the capacity.
func (c *PlanCache) Put(k PlanKey, v any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(k, v, bytes, func(any, any, int64) { c.evictions++ })
}

// ResetStats zeroes the tier's counters without touching its entries —
// the hook behind db.ResetStats, so delta measurements start from a
// clean slate while the cache stays warm.
func (c *PlanCache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// Stats snapshots the tier counters.
func (c *PlanCache) Stats() TierStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TierStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.lru.len(), Bytes: c.lru.bytes,
	}
}
