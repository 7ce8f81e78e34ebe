package exec

import (
	"math/bits"
	"sync"

	"disqo/internal/agg"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// The unnested plan's operators build tables that live exactly as long
// as one operator: a Γ's or Γ²'s group tables and DISTINCT sets, a Γ²'s
// base accumulators and results table, a join's build side — or as long
// as one morsel: a join's or Γ²'s record of the pairs it writes. Each is
// taken from a pool and handed back where its operator ends, once no
// worker reads it and no output row aliases it, so that a warm query
// builds none. The indexes are types.RowIndex's own pools; the
// accumulator slabs, results tables, pair records and selections are
// slabs, pooled here. An error path hands nothing back: its tables fall
// to the collector.
//
// The relations between operators are recycled the same way, one level
// up: an intermediate relation lives as long as the operator that reads
// it. Its operator takes its row list and, when its rows come back too,
// the chunks it cuts them from, from the pools, as far as the plan says
// they come back (physical.Output), and records them in the relation
// (storage.Owned). Its consumer, once its workers are joined and its
// output written, hands back everything the input owns when it copied
// the input's values, and only the list when its output rows are the
// input's (physical.PassesRows): its own relation then owns the chunks,
// and hands them on in turn (handBack).

// slab is a pooled run of E: a group table's or a base's accumulators, a
// binary grouping's results table, a morsel's pair record or selection,
// a relation's row list or a chunk of its rows. Its length is its used
// part.
type slab[E any] []E

// slabPool keeps released slabs in power-of-two capacity classes: class
// c holds slabs of capacity at least 1<<c. A slab is handed out and
// back as a pointer, so that handing one back allocates nothing.
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
	selSlabs   = slabPool[int32]{scrub: scrubSel}
	listSlabs  = slabPool[[]types.Value]{scrub: scrubList}
)

// take returns an empty slab with room for n: a released one of the
// smallest class that holds n, or a new one of that class's capacity.
func (p *slabPool[E]) take(n int) *slab[E] {
	c := bits.Len(uint(max(n, 1) - 1))
	if sl, _ := p.classes[c].Get().(*slab[E]); sl != nil {
		*sl = (*sl)[:0]
		return sl
	}
	sl := make(slab[E], 0, 1<<c)
	return &sl
}

// put scrubs sl's used part and hands it back to the class its capacity
// fills.
func (p *slabPool[E]) put(sl *slab[E]) {
	p.scrub(*sl)
	p.classes[bits.Len(uint(cap(*sl)))-1].Put(sl)
}

// owners holds the handles of relations handed back, their lists of
// chunks emptied, for the next relation to record its storage in.
var owners = sync.Pool{New: func() any { return new(storage.Owned) }}

// spent marks a relation its consumer has handed back: nothing reads it
// again, and the next run on the executor drops it from the memo
// (purgeSpent).
var spent = new(storage.Owned)

// output is what comes back of the relation n yields under env: what
// the plan settled (Node.Output), or nothing when the result stays in
// the memo for the next outer tuple to read.
func (ex *Executor) output(n physical.Node, env *Env) physical.Output {
	if env != nil && ex.cacheable(n, env) {
		return 0
	}
	return n.Output()
}

// rows is one morsel's output rows and, when they are taken from the
// pools, what they own: the list's buffer, and the chunks the morsel's
// slab cuts rows from when those come back too.
type rows struct {
	list [][]types.Value
	own  *storage.Owned
	out  physical.Output
}

// newRows returns an empty output with room for n rows, out saying what
// of it comes back: a pooled list, or one made to size when the list
// does not come back.
func newRows(n int, out physical.Output) rows {
	if out&physical.ListBack == 0 {
		return rows{list: make([][]types.Value, 0, n)}
	}
	own := owners.Get().(*storage.Owned)
	sl := listSlabs.take(n)
	own.List = (*[][]types.Value)(sl)
	return rows{list: *sl, own: own, out: out}
}

// slab returns a slab for the output's n rows of the given width, which
// records the chunks it cuts in the output when they come back.
func (r *rows) slab(w *Executor, width, n int) rowSlab {
	s := w.slab(width, n)
	if r.out&physical.RowsBack != 0 {
		s.own = r.own
	}
	return s
}

// relation returns the relation of schema sch whose rows are the
// output's, and which owns what the output does.
func (m rows) relation(sch *storage.Schema) *storage.Relation {
	rel := storage.NewRelation(sch)
	rel.Tuples, rel.Owned = m.list, m.own
	if m.own != nil {
		*m.own.List = m.list
	}
	return rel
}

// relation returns the relation of schema sch whose rows are the
// morsels' outputs in morsel order, out saying what of it comes back:
// the one morsel's output itself, or their lists copied into one, the
// morsels' lists handed back and their chunks now the relation's.
func relation(sch *storage.Schema, ms []rows, out physical.Output) *storage.Relation {
	if len(ms) == 1 {
		return ms[0].relation(sch)
	}
	n := 0
	for _, m := range ms {
		n += len(m.list)
	}
	all := newRows(n, out)
	for _, m := range ms {
		all.list = append(all.list, m.list...)
		if m.own != nil {
			*m.own.List = m.list
			moveRows(m.own, all.own)
			release(m.own)
		}
	}
	return all.relation(sch)
}

// moveRows passes from's chunks to to, or, when to is nil, leaves them
// to the collector with the rows cut from them.
func moveRows(from, to *storage.Owned) {
	if to != nil {
		to.Rows = append(to.Rows, from.Rows...)
	}
	clear(from.Rows)
	from.Rows = from.Rows[:0]
}

// handBack hands back what in, input i of n, owns, once n has written
// out, its output: its list, and its rows unless n's output rows are
// in's (physical.PassesRows), which out then owns (moveRows). in is
// spent after.
func handBack(n physical.Node, i int, in, out *storage.Relation) {
	own := in.Owned
	if own == nil || own == spent {
		return
	}
	in.Owned = spent
	if physical.PassesRows(n, i) {
		moveRows(own, out.Owned)
	}
	release(own)
}

// release hands an owner's list and chunks back to their pools, and the
// owner to its own.
func release(own *storage.Owned) {
	if own.List != nil {
		listSlabs.put((*slab[[]types.Value])(own.List))
		own.List = nil
	}
	for _, c := range own.Rows {
		valueSlabs.put((*slab[types.Value])(c))
	}
	clear(own.Rows)
	own.Rows = own.Rows[:0]
	owners.Put(own)
}

// purgeSpent drops from the memo the relations consumers handed back,
// before a new run on the executor can look one up: within a run only
// their one consumer reads them.
func (sh *sharedState) purgeSpent() {
	for n, rel := range sh.memo {
		if rel.Owned == spent {
			delete(sh.memo, n)
		}
	}
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

// scrubSel is scrubPairs for a selection: a row number read after
// release is out of range.
func scrubSel(sel []int32) {
	if types.PoisonReleased {
		for i := range sel {
			sel[i] = -0x0badf00d
		}
	}
}

// scrubList empties a released row list, so that it holds no row and a
// row read through it after release fails.
func scrubList(rows [][]types.Value) { clear(rows) }
