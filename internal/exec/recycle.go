package exec

import (
	"math/bits"
	"sync"

	"disqo/internal/agg"
	"disqo/internal/types"
)

// The unnested plan's operators build tables that live exactly as long
// as one operator: a Γ's or Γ²'s group tables and DISTINCT sets, a Γ²'s
// base accumulators and results table, a join's build side — or as long
// as one morsel: a join's or Γ²'s record of the pairs it writes. Each is
// taken from a pool and handed back where its operator ends, once no
// worker reads it and no output row aliases it, so that a warm query
// builds none. The indexes are types.RowIndex's own pools; the
// accumulator slabs, results tables and pair records are slabs, pooled
// here. An error
// path hands nothing back: its tables fall to the collector.

// slab is a pooled run of E: a group table's or a base's accumulators, a
// binary grouping's results table, or a morsel's pair record. s is its
// used part.
type slab[E any] struct{ s []E }

// slabPool keeps released slabs in power-of-two capacity classes: class
// c holds slabs of capacity at least 1<<c. A slab is a pointer, so that
// handing one back allocates nothing.
type slabPool[E any] struct {
	classes [48]sync.Pool
	// scrub drops the references of a released slab's used part, and
	// poisons it in a build with the race detector.
	scrub func([]E)
}

var (
	accSlabs   = slabPool[agg.Acc]{scrub: agg.Scrub}
	valueSlabs = slabPool[types.Value]{scrub: scrubValues}
	pairSlabs  = slabPool[[2]int32]{scrub: scrubPairs}
)

// take returns an empty slab with room for n: a released one of the
// smallest class that holds n, or a new one of that class's capacity.
func (p *slabPool[E]) take(n int) *slab[E] {
	c := bits.Len(uint(max(n, 1) - 1))
	if sl, _ := p.classes[c].Get().(*slab[E]); sl != nil {
		sl.s = sl.s[:0]
		return sl
	}
	return &slab[E]{s: make([]E, 0, 1<<c)}
}

// put scrubs sl's used part and hands it back to the class its capacity
// fills.
func (p *slabPool[E]) put(sl *slab[E]) {
	p.scrub(sl.s)
	p.classes[bits.Len(uint(cap(sl.s)))-1].Put(sl)
}

// poisonValue is what a poisoned results table (scrubValues) holds.
var poisonValue = types.NewInt(-0x0badf00d)

// scrubValues empties a released results table: NULLs, or, in a build
// with the race detector, a value no aggregate of the tests' data
// yields, so that a result read after release decides wrongly.
func scrubValues(vs []types.Value) {
	if !types.PoisonReleased {
		clear(vs)
		return
	}
	for i := range vs {
		vs[i] = poisonValue
	}
}

// scrubPairs leaves a released pair record as it is — it holds no
// references — or, in a build with the race detector, fills it with an
// offset no morsel has, so that a pair read after release fails.
func scrubPairs(ps [][2]int32) {
	if types.PoisonReleased {
		for i := range ps {
			ps[i] = [2]int32{-0x0badf00d, -0x0badf00d}
		}
	}
}
