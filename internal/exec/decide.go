package exec

import (
	"math/bits"
	"slices"
	"sync"

	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
	"disqo/internal/vec"
)

// decideByColumns is the binary grouping's vector path: each morsel of
// the left input is decided in windows of at most a morsel's size by
// selection vectors, so a tuple is decided once and a grouping is looked
// up only for the tuples still undecided when a disjunct first reads its
// results — the probe counts of the row path's lazy evaluation, disjunct
// by disjunct (BestD's shrinking selection, arXiv 2002.00540).
//
// A window starts with every tuple undecided. The bypass operands, where
// they compiled (b.VecBypass), decide first, over the left columns, and
// a tuple they hold TRUE on is kept without a lookup. Then b.Rest's
// disjuncts run in order over the undecided selection: each looks up
// the groupings it reads that no earlier disjunct did, for the selected
// tuples — a left key read as a word from its column when the left input
// is a base table's scan and the key one int column (grouping.lkey), else
// from the tuple — gathers their results as typed columns, and evaluates
// its compiled program over the left columns ◦ those results, or, where
// it did not compile, its bound predicate per tuple. A tuple it holds
// TRUE on is kept and leaves the selection. Without a fused selection
// every tuple is kept. A kept tuple whose emitted columns read results
// not yet looked up looks them up before it is written.
//
// Kept tuples are marked in a bit set over the morsel and written, in
// left order, once the morsel is decided: a PassLeft node's as its left
// rows cut to width, straight from the bit set; any other's from one
// slab of exactly their number, with the results its emitted columns
// read, copied out in left order as the windows are decided. Without a
// fused selection every tuple is written as its window is decided. A morsel's
// buffers (colScratch) serve all its windows, and are handed on to the
// next morsel, node or query once it is written.
func (ex *Executor) decideByColumns(b *physical.BinaryGroup, l *storage.Relation, gs []grouping, total int, compiled bool, out physical.Output, env *Env) ([]rows, error) {
	width := b.L.Schema().Len()
	for j := range gs {
		if gs[j].tables != nil {
			gs[j].lkey = ex.keyColumn(b.L, l, gs[j].LCols)
		}
	}
	// The left columns the compiled programs read, built here so that
	// morsel workers only load them: none on the row path.
	var batch *storage.Batch
	var cols []int
	if compiled {
		cols = leftCols(b)
	}
	if cols != nil {
		batch = l.Batch()
		batch.Materialize(cols)
	}
	emits := emitReads(b, gs)
	outWidth := b.Schema().Len()
	return parMorsels(ex, len(l.Tuples),
		func(w *Executor, lo, hi int) (rows, error) {
			sc := takeScratch(min(hi-lo, w.msize), hi-lo, width, total, gs)
			d := decider{w: w, b: b, gs: gs, sc: sc, l: l, env: env, compiled: compiled, width: width, total: total}
			if w.nm != nil {
				d.probes = make([]int64, len(gs))
			}
			// write writes the kept tuple lt with its results r.
			var slab rowSlab
			write := func(lt, r []types.Value) []types.Value {
				if b.PassLeft {
					return lt[:outWidth:outWidth]
				}
				return slab.emitRow(b.Emit, lt, r)
			}
			// Without a fused selection every tuple is kept, and written as
			// its window is decided; otherwise once the morsel is, from the
			// bit set, with the results the emitted columns read gathered
			// into res, total each, as the windows are decided.
			var m rows
			if b.Keep == nil {
				m = newRows(hi-lo, out)
				slab = m.slab(w, outWidth, hi-lo)
			}
			var res []types.Value
			row := sc.results(total)
			for s := lo; s < hi; s += w.msize {
				if err := w.slowTick(); err != nil {
					return rows{}, err
				}
				n := min(w.msize, hi-s)
				d.s, d.at = s, s-lo
				sc.slice(batch, cols, s, s+n)
				if err := d.window(n, emits); err != nil {
					return rows{}, err
				}
				for r := range int32(n) {
					switch {
					case b.Keep == nil:
						if err := d.results(r, emits, row); err != nil {
							return rows{}, err
						}
						m.list = append(m.list, write(l.Tuples[s+int(r)], row))
					case emits != 0 && d.kept(r):
						at := len(res)
						res = slices.Grow(res, total)[:at+total]
						if err := d.results(r, emits, res[at:]); err != nil {
							return rows{}, err
						}
					}
				}
			}
			if d.probes != nil {
				w.metric(b).addProbes(d.probes)
			}
			if b.Keep == nil {
				sc.release()
				return m, nil
			}
			count := 0
			for _, word := range sc.keep {
				count += bits.OnesCount64(word)
			}
			m = newRows(count, out)
			if !b.PassLeft {
				slab = m.slab(w, outWidth, count)
			}
			for i, word := range sc.keep {
				for ; word != 0; word &= word - 1 {
					var r []types.Value // none when the emitted columns read no result
					if k := len(m.list); emits != 0 {
						r = res[k*total:][:total]
					}
					m.list = append(m.list, write(l.Tuples[lo+64*i+bits.TrailingZeros64(word)], r))
				}
			}
			sc.release()
			return m, nil
		})
}

// leftCols lists the columns of the left input that b's compiled
// programs read, once per program reading it.
func leftCols(b *physical.BinaryGroup) []int {
	width := b.L.Schema().Len()
	var cols []int
	each := func(p *vec.Pred) {
		if p == nil {
			return
		}
		for _, c := range p.Cols() {
			if c < width {
				cols = append(cols, c)
			}
		}
	}
	each(b.VecBypass)
	for i := range b.Rest {
		each(b.Rest[i].Vec)
	}
	return cols
}

// decider decides one morsel's windows of a binary grouping's left input
// on the vector path (decideByColumns). A window is the left tuples s …
// s+n-1; its rows are numbered from 0.
type decider struct {
	w        *Executor
	b        *physical.BinaryGroup
	gs       []grouping
	sc       *colScratch
	l        *storage.Relation
	env      *Env
	kf, kr   *Env // a disjunct interpreted per tuple sees it ◦ its results, made then
	scans    []func(lt, dst []types.Value) error
	probes   []int64
	compiled bool
	width    int // the left input's columns
	total    int // the results, every grouping's
	s, at    int // the window's first tuple, in L and in the morsel
	// looked and gathered are the groupings looked up in the window, and
	// those whose results are gathered into the frame, both for the
	// selection of the disjunct that first needed them: bit j for gs[j].
	looked, gathered uint64
}

// window decides the window's n tuples, marking those it keeps in the
// morsel's bit set. The results of a grouping its emitted columns read,
// emits, start unknown: a kept tuple that did not look it up does so
// when it is written.
func (d *decider) window(n int, emits uint64) error {
	sc, w := d.sc, d.w
	truth := sc.truth[:n]
	sel := append(sc.sel(), sc.vs.All(n)...)
	d.looked, d.gathered = 0, 0
	for j := range d.gs {
		if emits>>uint(j)&1 != 0 {
			ents := sc.ents(j)[:n]
			for r := range ents {
				ents[r] = -1
			}
		}
	}
	if d.b.Keep == nil {
		d.keep(sel, nil)
		return nil
	}
	if d.compiled && d.b.VecBypass != nil {
		cmps, err := d.b.VecBypass.EvalSel(&sc.vs, sc.frame, sel, truth)
		w.stats.Comparisons += cmps
		if err != nil {
			return err
		}
		sel = d.keep(sel, truth)
	}
	for i := range d.b.Rest {
		if len(sel) == 0 {
			break
		}
		dj := &d.b.Rest[i]
		for j := range d.gs {
			if (dj.Reads&^d.looked)>>uint(j)&1 == 0 {
				continue
			}
			d.looked |= 1 << uint(j)
			if d.probes != nil {
				d.probes[j] += int64(len(sel))
			}
			for _, r := range sel {
				if err := d.look(j, r); err != nil {
					return err
				}
			}
		}
		if d.compiled && dj.Vec != nil {
			for j := range d.gs {
				if (dj.Reads&^d.gathered)>>uint(j)&1 != 0 {
					d.gathered |= 1 << uint(j)
					d.gather(j, sel)
				}
			}
			cmps, err := dj.Vec.EvalSel(&sc.vs, sc.frame, sel, truth)
			w.stats.Comparisons += cmps
			if err != nil {
				return err
			}
		} else {
			if d.kf == nil {
				d.kf, d.kr = pairFrames(d.env)
			}
			row := sc.results(d.total)
			for _, r := range sel {
				for j := range d.gs {
					if dj.Reads>>uint(j)&1 != 0 {
						d.copyResults(j, r, row)
					}
				}
				ok, err := w.holds(dj.Bound, d.kf, d.kr, d.l.Tuples[d.s+int(r)], row)
				if err != nil {
					return err
				}
				truth[r] = types.TriOf(ok)
			}
		}
		sel = d.keep(sel, truth)
	}
	return nil
}

// keep marks the rows of sel whose truth is TRUE — every one, when truth
// is nil — kept, and returns the others, in order, in sel's place.
func (d *decider) keep(sel []int32, truth []types.TriBool) []int32 {
	rest := sel[:0]
	for _, r := range sel {
		if truth == nil || truth[r] == types.True {
			i := d.at + int(r)
			d.sc.keep[i/64] |= 1 << uint(i%64)
		} else {
			rest = append(rest, r)
		}
	}
	return rest
}

// kept reports whether the window's row r is kept.
func (d *decider) kept(r int32) bool {
	i := d.at + int(r)
	return d.sc.keep[i/64]>>uint(i%64)&1 != 0
}

// look looks grouping j up for the window's row r, recording where its
// results start in the grouping's results (source).
func (d *decider) look(j int, r int32) error {
	g, ents := &d.gs[j], d.sc.ents(j)
	i := d.s + int(r)
	switch {
	case g.keyRes == nil:
		if d.scans == nil {
			d.scans = nlScans(d.w, d.gs, d.env)
		}
		n := len(g.Aggs)
		ents[r] = r * int32(n)
		return d.scans[j](d.l.Tuples[i], d.sc.nl[j][int(r)*n:][:n])
	case g.lkey != nil:
		ents[r] = 0 // a NULL key, or one R⁻ lacks, reads the base
		if k, ok := intKey(g.lkey, i); ok {
			h := g.tables[0].ix.HashWord(k)
			p := partOf(h, len(g.tables))
			if e := g.tables[p].ix.FirstWord(k, h); e >= 0 {
				ents[r] = int32(g.tables[p].res + int(e)*len(g.Aggs))
			}
		}
	default:
		ents[r] = int32(g.entry(d.l.Tuples[i]))
	}
	return nil
}

// source is the results table grouping j's looked-up entries index: its
// results table, or, nested-loop, the window's results of it.
func (d *decider) source(j int) []types.Value {
	if d.gs[j].keyRes != nil {
		return d.gs[j].keyRes
	}
	return d.sc.nl[j]
}

// copyResults copies the results of grouping j for row r into dst, the
// node's results, at the grouping's offset.
func (d *decider) copyResults(j int, r int32, dst []types.Value) {
	g := &d.gs[j]
	n := len(g.Aggs)
	e := int(d.sc.ents(j)[r])
	copy(dst[g.off:][:n], d.source(j)[e:e+n])
}

// results writes the node's results for kept row r into dst: those of
// every grouping the emitted columns read, emits, each looked up now if
// the row has not looked it up.
func (d *decider) results(r int32, emits uint64, dst []types.Value) error {
	for j := range d.gs {
		if emits>>uint(j)&1 == 0 {
			continue
		}
		if d.sc.ents(j)[r] < 0 {
			if d.probes != nil {
				d.probes[j]++
			}
			if err := d.look(j, r); err != nil {
				return err
			}
		}
		d.copyResults(j, r, dst)
	}
	return nil
}

// gather writes grouping j's results for the rows sel into the frame,
// after the left columns, one typed column per aggregate.
func (d *decider) gather(j int, sel []int32) {
	g, src, ents := &d.gs[j], d.source(j), d.sc.ents(j)
	for a := range g.Aggs {
		c := d.width + g.off + a
		d.sc.gath[g.off+a].gather(&d.sc.frame[c], d.sc.size, src, ents, a, sel)
	}
}

// gathered is one result column's buffers, of the scratch's size, made
// on first use of each kind.
type gathered struct {
	ints   []int64
	floats []float64
	nulls  []bool
	mixed  []types.Value
}

// gather fills cv's rows sel with the values src[ents[r]+a]: as an int or
// a float column, with a null mask if one is NULL, when their non-NULL
// values share that kind, else boxed.
func (g *gathered) gather(cv *storage.ColVec, size int, src []types.Value, ents []int32, a int, sel []int32) {
	kind, uniform, nulls := types.KindNull, true, false
	for _, r := range sel {
		switch k := src[int(ents[r])+a].Kind(); {
		case k == types.KindNull:
			nulls = true
		case k == kind:
		case kind == types.KindNull:
			kind = k
		default:
			uniform = false
		}
	}
	if !uniform || kind != types.KindNull && kind != types.KindInt && kind != types.KindFloat {
		if g.mixed == nil {
			g.mixed = make([]types.Value, size)
		}
		for _, r := range sel {
			g.mixed[r] = src[int(ents[r])+a]
		}
		*cv = storage.ColVec{Mixed: g.mixed}
		return
	}
	*cv = storage.ColVec{Kind: kind}
	if nulls || kind == types.KindNull {
		if g.nulls == nil {
			g.nulls = make([]bool, size)
		}
		cv.Nulls = g.nulls
		for _, r := range sel {
			g.nulls[r] = src[int(ents[r])+a].IsNull()
		}
	}
	switch kind {
	case types.KindInt:
		if g.ints == nil {
			g.ints = make([]int64, size)
		}
		cv.Ints = g.ints
		for _, r := range sel {
			g.ints[r], _ = src[int(ents[r])+a].IntOk()
		}
	case types.KindFloat:
		if g.floats == nil {
			g.floats = make([]float64, size)
		}
		cv.Floats = g.floats
		for _, r := range sel {
			g.floats[r], _ = src[int(ents[r])+a].FloatOk()
		}
	}
}

// colScratch is the buffers of a morsel on the vector path. A compiled
// σ, χ or tag uses only the evaluator's and its frame (evalScratch). The
// binary grouping's windows of up to size rows use, besides those, whose
// frame is the left columns ◦ the gathered results the compiled
// disjuncts read, the selection and its truth values, each grouping's
// looked-up entries and, nested-loop, results, one tuple's results for
// a disjunct interpreted per tuple, and the bit set of a morsel's kept
// tuples. A hashed grouping's fold by columns (foldWords) uses, per key
// partition, only the rows it folds and each one's key entry, those rows
// permuted by entry and each entry's end in that order (dedupWords), and
// every entry's words.
type colScratch struct {
	evalScratch
	size  int
	truth []types.TriBool
	rows  []int32 // the selection, then each grouping's entries: size each
	nl    [][]types.Value
	gath  []gathered
	row   []types.Value
	keep  []uint64

	frows, fents, perm, ends []int32
	words                    []int64
}

// results returns the buffer of one tuple's total results.
func (sc *colScratch) results(total int) []types.Value {
	if len(sc.row) < total {
		sc.row = make([]types.Value, total)
	}
	return sc.row[:total]
}

// sel returns the window's selection buffer, empty.
func (sc *colScratch) sel() []int32 { return sc.rows[:0:sc.size] }

// ents returns grouping j's entries buffer.
func (sc *colScratch) ents(j int) []int32 { return sc.rows[(1+j)*sc.size:][:sc.size] }

// colScratches holds the buffers of morsels written, for the next
// morsel, node or query to take.
var colScratches sync.Pool

// takeEval returns buffers whose frame holds width columns: a written
// morsel's, its frame grown if it is too small, or new ones. The caller
// hands them back (release) when its morsel is written.
func takeEval(width int) *colScratch {
	sc, _ := colScratches.Get().(*colScratch)
	if sc == nil {
		sc = new(colScratch)
	}
	if len(sc.frame) < width {
		sc.frame = make(vec.Frame, width)
	}
	return sc
}

// takeFold returns buffers, as takeEval does, for a partition of a fold
// by columns, its rows and words empty.
func takeFold() *colScratch {
	sc := takeEval(0)
	sc.frows, sc.fents, sc.words = sc.frows[:0], sc.fents[:0], sc.words[:0]
	return sc
}

// takeScratch returns buffers, as takeEval does, for a binary grouping's
// morsel of m tuples in windows of size over a frame of width left
// columns ◦ total results, for the groupings gs, its kept set cleared.
func takeScratch(size, m, width, total int, gs []grouping) *colScratch {
	sc := takeEval(width + total)
	if sc.size < size {
		sc.size, sc.truth, sc.gath = size, make([]types.TriBool, size), nil
	}
	if n := (1 + len(gs)) * sc.size; len(sc.rows) < n {
		sc.rows = make([]int32, n)
	}
	for len(sc.nl) < len(gs) {
		sc.nl = append(sc.nl, nil)
	}
	for j := range gs {
		if n := len(gs[j].Aggs) * sc.size; gs[j].keyRes == nil && len(sc.nl[j]) < n {
			sc.nl[j] = make([]types.Value, n)
		}
	}
	if len(sc.gath) < total {
		sc.gath = append(sc.gath, make([]gathered, total-len(sc.gath))...)
	}
	if words := (m + 63) / 64; cap(sc.keep) < words {
		sc.keep = make([]uint64, words)
	} else {
		sc.keep = sc.keep[:words]
		clear(sc.keep)
	}
	return sc
}

// release drops the buffers' references into the columns and results
// they last held and puts them back for another morsel.
func (sc *colScratch) release() {
	clear(sc.frame)
	clear(sc.row)
	for j := range sc.nl {
		clear(sc.nl[j])
	}
	for i := range sc.gath {
		clear(sc.gath[i].mixed)
	}
	colScratches.Put(sc)
}
