package cache

import "sync"

// PlanKey identifies one cached plan. SQL is the normalized statement
// text; Nulls ("3vl"/"2vl") says whether it was translated to two-valued
// logic; CatalogVersion pins the committed state the plan was derived
// against — any commit bumps it — so a stale plan simply stops matching
// rather than needing eager invalidation.
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
func (c *PlanCache) Get(k PlanKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lru.get(k)
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
