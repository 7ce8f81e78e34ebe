package exec

import (
	"math"
	"slices"
	"sort"

	"disqo/internal/agg"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// aggFeed feeds one morsel's input rows to accumulators, per aggregate
// item, from its argument the planner bound to the input row
// (physical.AggArg), so the per-row work is only the evaluation. An item
// whose argument is columns of the input row, Cols, is fed the row and
// reads its argument, or keys its DISTINCT set, on them (agg.Acc.AddOn);
// any other Star item is fed the row, and any other item the value of
// its argument expression. The feed owns the frame the argument
// expressions see each row through and the buffer their values are
// handed over in, so a row costs no allocation. A keyed feed is a keyed
// fold's (Γ's, a hashed grouping's): it deduplicates the items with a
// Dedup itself, and their accumulators count what they are fed.
type aggFeed struct {
	args  []physical.AggArg
	keyed bool
	frame Env
	one   [1]types.Value
}

func newFeed(args []physical.AggArg, keyed bool, env *Env) *aggFeed {
	return &aggFeed{args: args, keyed: keyed, frame: Env{parent: env}}
}

// dedups reports whether the fold deduplicates item i itself.
func (f *aggFeed) dedups(i int) bool { return f.keyed && f.args[i].Dedup != nil }

// spec is the spec item i's accumulators run in this fold.
func (f *aggFeed) spec(i int) agg.Spec {
	s := f.args[i].Spec
	if f.dedups(i) {
		s.Distinct = false
	}
	return s
}

// addTo feeds one input row to item i's accumulator: by its argument
// columns when it has them (the row itself for Star), else the evaluated
// argument expression — in the feed's buffer, or, for a DISTINCT
// accumulator, which retains its argument, in a fresh slice.
func (f *aggFeed) addTo(w *Executor, acc *agg.Acc, i int, row []types.Value) error {
	arg := &f.args[i]
	if arg.Spec.Star || arg.Cols != nil {
		acc.AddOn(row, arg.Cols)
		return nil
	}
	f.frame.tuple = row
	v, err := w.EvalExpr(arg.Expr, &f.frame)
	if err != nil {
		return err
	}
	if arg.Spec.Distinct {
		acc.AddOn([]types.Value{v}, nil)
		return nil
	}
	f.one[0] = v
	acc.AddOn(f.one[:], nil)
	return nil
}

// add feeds one input row to the accumulator of every item but those the
// fold deduplicates itself (groupTable.fold feeds those).
func (f *aggFeed) add(w *Executor, accs []agg.Acc, row []types.Value) error {
	for i := range f.args {
		if f.dedups(i) {
			continue
		}
		if err := f.addTo(w, &accs[i], i, row); err != nil {
			return err
		}
	}
	return nil
}

// groupTable is a hash grouping with deterministic first-appearance
// output order. A group is an entry of an index over the input rows —
// its first row, keyed on the grouping columns — and its accumulators
// sit beside it in one slab, entry e's at accs[e*len(args):]. Keys
// compare under Identical (NULL groups with NULL), or, for Γ²'s per-key
// fold (skipNulls), SQL equality: a NULL key is in no group. Γ²'s groups
// overlay base, the accumulators of the rows every group holds. seen[j],
// for a DISTINCT item the table dedups itself, indexes the same rows on
// its Dedup columns (grouping columns, other argument columns): a row feeds
// the item when it is new there — and, under an overlay, not in base's
// set. That is the fold by rows (foldGroups); Γ²'s fold by columns
// (foldWords) keeps only the index, and each entry's words in the
// buffers words while it folds: no accumulator and no seen index. The
// indexes and the slab are pooled: the operator that folded the table
// hands them back (release) once it has written its output.
type groupTable struct {
	ix    *types.RowIndex
	base  []agg.Acc
	accs  []agg.Acc
	slab  *slab[agg.Acc] // accs' pooled buffer
	seen  []*types.RowIndex
	next  int         // the next entry to emit (Γ)
	res   int         // where the entries' results start in Γ²'s results (foldKeys, foldWords)
	keys  int         // key columns, which lead every Dedup
	words *colScratch // the fold by columns' buffers, while it folds (foldWords)
}

// newGroupTable returns an empty table over rows keyed on keyCols for
// the items args, its index and accumulator slab sized for groups groups
// and its DISTINCT indexes for pairs (group, argument) pairs.
func newGroupTable(args []physical.AggArg, rows [][]types.Value, keyCols []int, skipNulls bool, groups, pairs int, base []agg.Acc) *groupTable {
	gt := &groupTable{ix: types.NewRowIndex(rows, keyCols, skipNulls, groups), base: base,
		slab: accSlabs.take(groups * len(args)), keys: len(keyCols)}
	gt.accs = *gt.slab
	for j := range args {
		if cols := args[j].Dedup; cols != nil {
			if gt.seen == nil {
				gt.seen = make([]*types.RowIndex, len(args))
			}
			gt.seen[j] = types.NewRowIndex(rows, cols, false, pairs)
		}
	}
	return gt
}

// release hands the table's indexes and accumulators back to their
// pools. Nothing may read the table after.
func (gt *groupTable) release() {
	gt.ix.Release()
	for _, s := range gt.seen {
		if s != nil {
			s.Release()
		}
	}
	if gt.slab != nil {
		*gt.slab = gt.accs // grown past the slab, the grown buffer goes back
		accSlabs.put(gt.slab)
	}
}

// fold feeds input row i to the accumulators of its group, entry e,
// founding them when the row added the entry; h is the row's key hash,
// which a DISTINCT item's index continues over the argument columns
// rather than hash the key again.
func (gt *groupTable) fold(w *Executor, feed *aggFeed, i int, row []types.Value, h uint64, e int32, added bool) error {
	na := len(feed.args)
	if added {
		for j := range feed.args {
			switch {
			case gt.base == nil:
				gt.accs = append(gt.accs, *agg.NewAcc(feed.spec(j)))
			case gt.seen != nil && gt.seen[j] != nil:
				gt.accs = append(gt.accs, *agg.OverlayDeduped(&gt.base[j]))
			default:
				gt.accs = append(gt.accs, *agg.Overlay(&gt.base[j]))
			}
		}
	}
	accs := gt.accs[int(e)*na:][:na]
	if err := feed.add(w, accs, row); err != nil {
		return err
	}
	for j, s := range gt.seen {
		if s == nil || gt.base != nil && gt.base[j].Seen(row, feed.args[j].Cols) {
			continue
		}
		hj, _ := s.HashMore(h, row, feed.args[j].Dedup[gt.keys:])
		if _, added := s.FindOrAddHashed(int32(i), hj); !added {
			continue
		}
		if err := feed.addTo(w, &accs[j], j, row); err != nil {
			return err
		}
	}
	return nil
}

// newAccs appends to accs fresh accumulators for the items args, each
// running its Spec: a fold that deduplicates nothing itself.
func newAccs(accs []agg.Acc, args []physical.AggArg) []agg.Acc {
	for i := range args {
		accs = append(accs, *agg.NewAcc(args[i].Spec))
	}
	return accs
}

// intKey returns row i's key from keys, an int key column, and false
// when there is no column or the key is NULL.
func intKey(keys *storage.ColVec, i int) (int64, bool) {
	if keys == nil || keys.Nulls != nil && keys.Nulls[i] {
		return 0, false
	}
	return keys.Ints[i], true
}

// keyColumn returns the key column of rel, the relation node yields,
// keyed on cols, as ints: when the key is one column, node is a base
// table's scan — whose batch, and so the column once built, lives with
// the table version — and the column's non-NULL values are all ints;
// otherwise nil. Only the vector path reads keys from columns; the row
// path, the reference, hashes rows.
func (ex *Executor) keyColumn(n physical.Node, rel *storage.Relation, cols []int) *storage.ColVec {
	if _, scan := n.(*physical.Scan); !scan || ex.opt.Path != PathVector || len(cols) != 1 {
		return nil
	}
	if cv := rel.Batch().Col(cols[0]); cv.Kind == types.KindInt && cv.Mixed == nil {
		return cv
	}
	return nil
}

// partOf assigns a key hash to one of parts partitions. It mixes the hash
// before taking its high bits, so the partition does not follow the
// RowIndex slot (the high bits of h·φ) and each partition's keys still
// spread over all of its table's slots.
func partOf(h uint64, parts int) int {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int((h >> 32) * uint64(parts) >> 32)
}

// foldGroups is Γ's and the hashed Γ²'s fold of rows into group tables
// keyed on keyCols (skipNulls and base as in groupTable), every group
// once, in input order: with P = fanout(n) key partitions, the keys are
// hashed in morsels, then partition p folds the rows whose hash falls in
// it (partOf) into a table of its own, P partitions over P workers. A
// group's rows all fall in one partition, so each group is the
// sequential left fold of its rows at every worker count and every
// morsel size — float sums included. One worker, or no key columns, is
// one partition and no hashing pass. Each table and its accumulator slab
// are sized once, for est groups (at most n) over P. The rows folded are
// those sel selects (every row when sel is nil); the tables index them by
// their numbers in rows. keys, when not nil, is the one key column as
// ints (NULLs allowed), indexed as rows are: a key is then hashed and
// found by its word, not read from its row.
func (ex *Executor) foldGroups(args []physical.AggArg, rows [][]types.Value, sel []int32, keyCols []int, keys *storage.ColVec, skipNulls bool, est float64, base []agg.Acc, env *Env) ([]*groupTable, error) {
	n, parts := selLen(rows, sel), 1
	if len(keyCols) > 0 {
		parts = ex.fanout(n)
	}
	groups := estGroups(est, n) / parts
	tables := make([]*groupTable, parts)
	for p := range tables {
		tables[p] = newGroupTable(args, rows, keyCols, skipNulls, groups, n/parts, base)
	}
	// hashes[at] is the key hash of the at-th row selected when there are
	// partitions, 0 for a key the tables skip — which a fold hashes
	// again, to find out.
	var hashes []uint64
	if parts > 1 {
		hashes = make([]uint64, n)
		if _, err := parMorsels(ex, n, func(w *Executor, lo, hi int) (struct{}, error) {
			for at := lo; at < hi; at++ {
				if err := w.tick(); err != nil {
					return struct{}{}, err
				}
				i := pick(sel, at)
				if k, ok := intKey(keys, i); ok {
					hashes[at] = tables[0].ix.HashWord(k)
				} else {
					hashes[at], _ = tables[0].ix.Hash(rows[i], keyCols)
				}
			}
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
	} else {
		ex.creditMorsels(n)
	}
	// fold folds partition p: the rows whose key hash falls in it, every
	// row with a key the table does not skip when there is one partition.
	fold := func(w *Executor, p int) (struct{}, error) {
		gt, feed := tables[p], newFeed(args, true, env)
		for at := range n {
			i := pick(sel, at)
			t := rows[i]
			h, ok := uint64(0), true
			if hashes != nil {
				h = hashes[at]
			}
			k, word := intKey(keys, i)
			switch {
			case h != 0:
			case word:
				h = gt.ix.HashWord(k)
			default:
				h, ok = gt.ix.Hash(t, keyCols)
			}
			if !ok || parts > 1 && partOf(h, parts) != p {
				continue
			}
			if err := w.tick(); err != nil {
				return struct{}{}, err
			}
			var e int32
			var added bool
			if word {
				e, added = gt.ix.FindOrAddWord(int32(i), k, h)
			} else {
				e, added = gt.ix.FindOrAddHashed(int32(i), h)
			}
			if err := gt.fold(w, feed, i, t, h, e, added); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}
	return tables, ex.eachPart(parts, n, fold)
}

// eachPart runs fold over partitions 0 … parts-1 of an n-row input, P
// partitions over P workers, each in one morsel.
func (ex *Executor) eachPart(parts, n int, fold func(w *Executor, p int) (struct{}, error)) error {
	var err error
	if parts == 1 {
		_, err = runMorsel(ex, 0, n, func(w *Executor, _, _ int) (struct{}, error) { return fold(w, 0) })
	} else {
		_, err = parTasks(ex, parts, parts, func(w *Executor, p int) (struct{}, error) {
			return runMorsel(w, 0, n, func(w *Executor, _, _ int) (struct{}, error) { return fold(w, p) })
		})
	}
	return err
}

// estGroups is a fold's number of groups for est estimated, at most its
// n rows.
func estGroups(est float64, n int) int {
	if est := math.Ceil(est); est < float64(n) {
		return int(est)
	}
	return n
}

// pick returns the number of a selection's at-th row: sel[at], or at
// when sel is nil, which selects every row. An empty selection is not
// nil.
func pick(sel []int32, at int) int {
	if sel == nil {
		return at
	}
	return int(sel[at])
}

// selLen is the number of rows sel selects of rows.
func selLen(rows [][]types.Value, sel []int32) int {
	if sel == nil {
		return len(rows)
	}
	return len(sel)
}

// evalGroup implements the unary grouping operator Γ: its input folded
// by foldGroups, sized for the estimated number of groups, and merged by
// each group's first row, so the output is in first-appearance order. A
// DISTINCT aggregate over input columns is deduplicated by Γ itself, in
// the same fold: a row feeds it when the row is new on (grouping
// columns, argument columns) — one index per partition where every
// group's accumulator would otherwise keep a set of its own. A Global
// grouping emits exactly one row even on empty input — the SQL scalar
// aggregate. Its rows are copies: its input is handed back whole.
func (ex *Executor) evalGroup(g *physical.Group, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(g.Child, env)
	if err != nil {
		return nil, err
	}
	tables, err := ex.foldGroups(g.Args, in.Tuples, nil, g.KeyCols, nil, false, g.EstRows(), nil, env)
	if err != nil {
		return nil, err
	}

	na, out := len(g.Aggs), ex.output(g, env)
	groups := 0
	for _, gt := range tables {
		groups += gt.ix.Len()
	}
	global := g.Global && groups == 0
	if global {
		groups = 1
	}
	m := newRows(groups, out)
	slab := m.slab(ex, len(g.KeyCols)+na, groups)
	if global {
		row := slab.next()
		for i, item := range g.Aggs {
			row[i] = item.Spec.Empty()
		}
		m.list = append(m.list, row)
	}
	for len(m.list) < groups {
		gt := tables[0] // the partition whose next group appeared first
		for _, q := range tables[1:] {
			if q.next < q.ix.Len() && (gt.next == gt.ix.Len() || q.ix.RowNum(int32(q.next)) < gt.ix.RowNum(int32(gt.next))) {
				gt = q
			}
		}
		e := gt.next
		gt.next++
		first, row := gt.ix.Row(int32(e)), slab.next()
		for j, c := range g.KeyCols {
			row[j] = first[c]
		}
		for i := 0; i < na; i++ {
			row[len(g.KeyCols)+i] = gt.accs[e*na+i].Result()
		}
		m.list = append(m.list, row)
	}
	for _, gt := range tables {
		gt.release()
	}
	rel := m.relation(g.Schema())
	handBack(g, 0, in, rel)
	return rel, nil
}

// evalBinaryGroup is Γ² by probing, with or without Eqv. 5's tag, over
// one left input and the node's list of groupings — one, or a chain of
// Γ²s the planner absorbed. Per left tuple x a grouping's group is
// σ_tag(R) ∪̇ σ_Pred(x)(σ_{¬tag}(R)); untagged, σ_tag(R) is empty and
// σ_{¬tag}(R) is R itself, shared rather than copied. Each grouping's R
// is folded once, before any left tuple is read (foldGrouping), and a
// left tuple then looks its results up in each.
//
// A fused selection (b.Keep) sees each left tuple ◦ its results, and
// only the tuples it holds TRUE on are written, cut from one slab of
// exactly their number per morsel. On the row path, the reference,
// every tuple looks every grouping up and b.Keep decides it (probeRows);
// the vector path decides a morsel's tuples by selection vectors,
// disjunct by disjunct (decideByColumns). Probes counts each grouping's
// lookups. Nothing of size |L|·|R| is built, and since every group is
// folded in R order on one goroutine, the fold order — hence any float
// rounding — is the same for every worker count.
//
// Every grouping's tables, base and results table are handed back to
// their pools once the probe's workers are joined. No output row aliases
// them: a written row's results are copied out of the results table —
// the row path's direct one too (writeKept, emitRow), the vector path's
// through copyResults — and a PassLeft row is its left row. Then the
// inputs are handed back: every R, whose rows no output row holds, and
// L, whose rows a PassLeft node's output then owns.
func (ex *Executor) evalBinaryGroup(b *physical.BinaryGroup, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(b.L, env)
	if err != nil {
		return nil, err
	}
	gs := make([]grouping, len(b.Groupings))
	for j := range gs {
		if gs[j].r, err = ex.eval(b.Groupings[j].R, env); err != nil {
			return nil, err
		}
	}
	compiled, err := ex.vecEnter(b)
	if err != nil {
		return nil, err
	}
	total := 0
	for j := range gs {
		if err := ex.foldGrouping(&gs[j], &b.Groupings[j], compiled, env); err != nil {
			return nil, err
		}
		gs[j].off = total
		total += len(b.Groupings[j].Aggs)
	}
	if ex.nm != nil {
		folds := make([]int64, len(gs))
		for j := range gs {
			if gs[j].words {
				folds[j] = 1
			}
		}
		ex.metric(b).addColumnFolds(folds)
	}
	out := ex.output(b, env)
	var chunks []rows
	if ex.opt.Path == PathVector {
		chunks, err = ex.decideByColumns(b, l, gs, total, compiled, out, env)
	} else {
		chunks, err = ex.probeRows(b, l, gs, total, out, env)
	}
	if err != nil {
		return nil, err
	}
	rel := relation(b.Schema(), chunks, out)
	handBack(b, 0, l, rel)
	for j := range gs {
		gs[j].release()
		handBack(b, 1+j, gs[j].r, rel)
	}
	return rel, nil
}

// probeRows is the row path's probe, the reference: every left tuple
// looks every grouping up — those its emitted columns read, when there
// is no fused selection — and b.Keep decides it on the tuple ◦ its
// results. A single grouping that looks its results up by key hands the
// tuple a run of its results table; otherwise a tuple's results are
// gathered into the morsel's own, kept while the tuple is, if its
// emitted columns read them.
func (ex *Executor) probeRows(b *physical.BinaryGroup, l *storage.Relation, gs []grouping, total int, out physical.Output, env *Env) ([]rows, error) {
	direct := len(gs) == 1 && gs[0].keyRes != nil
	need, emits := uint64(1)<<uint(len(gs))-1, emitReads(b, gs)
	if b.Keep == nil {
		need = emits
	}
	return parMorsels(ex, len(l.Tuples),
		func(w *Executor, lo, hi int) (rows, error) {
			// picks records the tuples written: each one's offset and where
			// its results are in res, -1 for a tuple whose emitted columns
			// read none. res is the results table when direct, else the
			// morsel's tuples' results, total each, kept while the tuple's
			// are written. Keep sees a tuple ◦ its results through kf, kr.
			ps := pairSlabs.take(hi - lo)
			picks := *ps
			var kf, kr *Env
			if b.Keep != nil {
				kf, kr = pairFrames(env)
			}
			var res []types.Value
			if direct {
				res = gs[0].keyRes
			} else if b.Keep == nil && emits != 0 {
				res = make([]types.Value, 0, total*(hi-lo))
			} else {
				res = make([]types.Value, 0, total)
			}
			scans := nlScans(w, gs, env)
			var probes []int64
			if w.nm != nil {
				probes = make([]int64, len(gs))
			}
			for i, t := range l.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return rows{}, err
				}
				at := 0
				if !direct {
					at = len(res)
					res = slices.Grow(res, total)[:at+total]
				}
				for j := range gs {
					g := &gs[j]
					if need>>uint(j)&1 == 0 {
						continue
					}
					if probes != nil {
						probes[j]++
					}
					n := len(g.Aggs)
					switch {
					case g.keyRes == nil:
						if err := scans[j](t, res[at+g.off:][:n]); err != nil {
							return rows{}, err
						}
					case direct:
						at = g.entry(t)
					default:
						e := g.entry(t)
						copy(res[at+g.off:][:n], g.keyRes[e:e+n])
					}
				}
				kept, err := w.holds(b.KeepBound, kf, kr, t, res[at:][:total])
				switch {
				case err != nil:
					return rows{}, err
				case kept && emits != 0:
					picks = append(picks, [2]int32{int32(i), int32(at)})
					continue
				case kept:
					picks = append(picks, [2]int32{int32(i), -1})
				}
				if !direct {
					res = res[:at]
				}
			}
			if probes != nil {
				w.metric(b).addProbes(probes)
			}
			m := w.writeKept(b, picks, l.Tuples[lo:hi], res, total, out)
			*ps = picks
			pairSlabs.put(ps)
			return m, nil
		})
}

// nlScans returns one morsel's lookups of the nested-loop groupings
// (grouping.scan), by grouping: nil for one looked up by its results
// table, and nil in all when every one is.
func nlScans(w *Executor, gs []grouping, env *Env) []func(lt, dst []types.Value) error {
	var scans []func(lt, dst []types.Value) error
	for j := range gs {
		if gs[j].keyRes == nil {
			if scans == nil {
				scans = make([]func(lt, dst []types.Value) error, len(gs))
			}
			scans[j] = gs[j].scan(w, env)
		}
	}
	return scans
}

// emitReads returns the groupings whose results b's emitted columns
// read: bit j for gs[j].
func emitReads(b *physical.BinaryGroup, gs []grouping) uint64 {
	if b.Emit == nil {
		return uint64(1)<<uint(len(gs)) - 1
	}
	var reads uint64
	width := b.L.Schema().Len()
	for _, c := range b.Emit {
		for j, g := range gs {
			if c >= width+g.off && c < width+g.off+len(g.Aggs) {
				reads |= 1 << uint(j)
			}
		}
	}
	return reads
}

// grouping is one grouping of a binary grouping, its right input folded:
// what a left tuple looks its results up in.
type grouping struct {
	*physical.Grouping
	off int // where its results start among the node's
	// tables is R⁻'s per-key fold when hashed, one table per key
	// partition, sorted R's running fold when sort-based; keyRes holds
	// the base's results, for a left key R⁻ lacks, a NULL or an
	// incomparable one, at 0, then each entry's: key entry e of a
	// table's at its res+e*n, the first k sorted rows' at k*n. A grouping
	// with neither scans R⁻ per left tuple into overlays of base. R⁻ is
	// the rows neg selects of R, r: tagged, those the tag does not hold
	// TRUE on (split); untagged, neg is nil and R⁻ is R. words reports
	// whether R⁻ was folded by columns (foldWords).
	tables []*groupTable
	sorted *sortedFold
	keyRes []types.Value
	r      *storage.Relation
	neg    []int32
	words  bool
	base   []agg.Acc
	// keySlab, baseSlab and negSlab are the pooled buffers of keyRes,
	// when hashed, of base and of neg.
	keySlab  *slab[types.Value]
	baseSlab *slab[agg.Acc]
	negSlab  *slab[int32]
	// lkey is the left input's key column as ints, when a left tuple's
	// key is read from it (keyColumn), not from the tuple.
	lkey *storage.ColVec
}

// foldGrouping folds the right input R of grouping g, which gr holds in
// r, once, into gr. R is split once on the tag (see split) into R⁺,
// folded once, in input order, into base accumulators whose results
// every group's continue, so an empty match set yields f(∅) (no count
// bug by construction), and R⁻, a selection of R's rows.
//
// When Pred is an equality, R⁻ is hashed on its keys (May & Moerkotte's
// main-memory binary grouping) and each distinct key's rows are folded
// once (foldKeys): one entry and one set of results per key, not per
// row; a left tuple only looks its key up, in the partition its key hash
// falls in. On the vector path, when R is a base table's scan keyed on
// one int column and every aggregate folds an int word, the key's rows
// are folded from R's columns into words (foldWords); otherwise into
// accumulators, in R order. Each inner group is then aggregated once
// however often left tuples repeat its key, for every aggregate,
// DISTINCT included — what the paper's Eqv. 4 pre-aggregation bought.
// This is sound because an aggregate's argument reads the inner row
// alone: the rewriter keeps a subquery nested whose argument reads the
// outer row, and a rule that let one through would have to fold per
// left tuple. When Pred is an inequality between two columns (g.Theta),
// R is sorted on its column and folded once as a running prefix or
// suffix (foldSorted): a left tuple binary-searches the entry of the
// right rows it compares with, as a hashed one looks its key up — in
// O((|L|+|R|)·log|R|) instead of the nested loop's O(|L|·|R|).
// Otherwise — or when R's column mixes kinds that do not compare with
// each other, so it has no order to search — each left tuple scans R⁻,
// evaluating Pred per pair, into overlays of its own (scan).
func (ex *Executor) foldGrouping(gr *grouping, g *physical.Grouping, compiled bool, env *Env) error {
	gr.Grouping = g
	r := gr.r
	hashed := g.LCols != nil && g.Theta == types.EQ
	// The base is what the sorted fold and a left tuple's scanned group
	// overlay; an untagged hashed Γ² has none.
	if !hashed || g.Tag != nil {
		gr.baseSlab = accSlabs.take(len(g.Args))
		*gr.baseSlab = newAccs(*gr.baseSlab, g.Args)
		gr.base = *gr.baseSlab
	}
	var err error
	if g.Tag != nil {
		if gr.negSlab, err = ex.split(g, r, compiled && g.VecTag != nil, newFeed(g.Args, false, env), gr.base, env); err != nil {
			return err
		}
		gr.neg = *gr.negSlab
	}
	switch {
	case g.Theta != types.EQ:
		if gr.sorted, gr.keyRes, err = ex.foldSorted(g, r, gr.neg, newFeed(g.Args, false, env)); gr.sorted == nil {
			ex.stats.NLJoins++
		} else {
			ex.stats.SortedGroups++
		}
	case hashed:
		ex.stats.HashJoins++
		keys := ex.keyColumn(g.R, r, g.RCols) // read at R⁻'s rows
		ex.creditHashBuild(selLen(r.Tuples, gr.neg))
		if wf, ok := ex.wordFoldOf(g, r, keys); ok {
			gr.words = true
			gr.tables, gr.keySlab, err = ex.foldWords(g, wf, r, gr.neg, gr.base)
		} else {
			gr.tables, gr.keySlab, err = ex.foldKeys(g, r, gr.neg, keys, gr.base, env)
		}
		if err == nil {
			gr.keyRes = *gr.keySlab
		}
	default:
		ex.stats.NLJoins++
	}
	return err
}

// release hands the grouping's tables, results table, base, R⁻'s
// selection and sorted rows back to their pools, once its binary
// grouping is written.
func (g *grouping) release() {
	for _, gt := range g.tables {
		gt.release()
	}
	if g.negSlab != nil {
		selSlabs.put(g.negSlab)
	}
	if g.sorted != nil {
		listSlabs.put(g.sorted.rows)
	}
	if g.keySlab != nil {
		valueSlabs.put(g.keySlab)
	}
	if g.baseSlab != nil {
		accSlabs.put(g.baseSlab)
	}
}

// entry returns where the results of left tuple lt's group start in a
// looked-up grouping's results table. A left key R⁻ lacks, a NULL or an
// incomparable one, reads the base alone, at 0.
func (g *grouping) entry(lt []types.Value) int {
	if g.sorted != nil {
		return g.sorted.entry(lt[g.LCols[0]]) * len(g.Aggs)
	}
	if h, ok := g.tables[0].ix.Hash(lt, g.LCols); ok {
		p := partOf(h, len(g.tables))
		if e := g.tables[p].ix.FirstHashed(lt, g.LCols, h); e >= 0 {
			return g.tables[p].res + int(e)*len(g.Aggs)
		}
	}
	return 0
}

// scan returns a nested-loop grouping's lookup for one morsel of left
// tuples: it feeds the rows of R⁻ that Pred matches with left tuple lt
// to overlays of the base and writes their results to dst.
func (g *grouping) scan(w *Executor, env *Env) func(lt, dst []types.Value) error {
	lf, rf := pairFrames(env)
	feed, accs := newFeed(g.Args, false, env), make([]agg.Acc, len(g.Aggs))
	return func(lt, dst []types.Value) error {
		for j := range g.base {
			accs[j] = *agg.Overlay(&g.base[j])
		}
		for at := range selLen(g.r.Tuples, g.neg) {
			rt := g.r.Tuples[pick(g.neg, at)]
			if err := w.tick(); err != nil {
				return err
			}
			match, err := w.holds(g.PredBound, lf, rf, lt, rt)
			if err != nil {
				return err
			}
			if match {
				if err := feed.add(w, accs, rt); err != nil {
					return err
				}
			}
		}
		for j := range accs {
			dst[j] = accs[j].Result()
		}
		return nil
	}
}

// foldKeys is the hashed binary grouping's fold of R⁻, the rows neg
// selects of r, by rows: Γ's partitioned group tables (foldGroups) keyed
// on RCols and sized for b.Groups keys, one entry per distinct key — a
// NULL key is in none — whose accumulators overlay base (nil: the empty
// group) and are fed the key's rows in R order. A DISTINCT item whose
// argument is columns of R is deduplicated as Γ's is, on (RCols,
// argument columns), after base's set: no key keeps a set of its own. It
// returns the tables and their results, in a pooled slab: base's first,
// then each table's from its res on. keys is R's key column as
// foldGroups takes it.
func (ex *Executor) foldKeys(b *physical.Grouping, r *storage.Relation, neg []int32, keys *storage.ColVec, base []agg.Acc, env *Env) ([]*groupTable, *slab[types.Value], error) {
	tables, err := ex.foldGroups(b.Args, r.Tuples, neg, b.RCols, keys, true, b.Groups, base, env)
	if err != nil {
		return nil, nil, err
	}
	size := len(b.Aggs)
	for _, gt := range tables {
		size += len(gt.accs)
	}
	sl := valueSlabs.take(size)
	res := (*sl)[:len(b.Aggs)]
	for i, item := range b.Aggs {
		if res[i] = item.Spec.Empty(); base != nil {
			res[i] = base[i].Result()
		}
	}
	for _, gt := range tables {
		gt.res = len(res)
		for i := range gt.accs {
			res = append(res, gt.accs[i].Result())
		}
	}
	*sl = res
	return tables, sl, nil
}

// sortedFold is the sort-based binary grouping's index into its results
// table: R's rows with a non-NULL grouping value, sorted on it, and the
// comparison a left value v must stand in to them, v θ value.
type sortedFold struct {
	rows  *slab[[]types.Value]
	col   int
	theta types.CompareOp
}

// foldSorted is the sort-based binary grouping's fold of R⁻, the rows
// neg selects of r: it sorts the rows whose grouping value is not NULL
// (NULL never compares) and folds them in one pass — ascending for > and
// ≥, whose groups are prefixes of the order, descending for < and ≤,
// whose groups are suffixes — recording after each row the results of
// the rows folded so far: the table it returns holds those of the first
// k rows folded at k*n, the empty group's at 0, and entry finds a left
// value's k. A column that mixes kinds that do not compare with each
// other has no order to search: foldSorted then returns nil, and the
// caller folds per pair.
func (ex *Executor) foldSorted(b *physical.Grouping, r *storage.Relation, neg []int32, feed *aggFeed) (*sortedFold, []types.Value, error) {
	n := selLen(r.Tuples, neg)
	s := &sortedFold{rows: listSlabs.take(n), col: b.RCols[0], theta: b.Theta}
	rows := *s.rows
	for at := range n {
		t := r.Tuples[pick(neg, at)]
		if t[s.col].IsNull() {
			continue
		}
		if len(rows) > 0 {
			if _, ok := types.Compare(rows[0][s.col], t[s.col]); !ok {
				*s.rows = rows
				listSlabs.put(s.rows)
				return nil, nil, nil
			}
		}
		rows = append(rows, t)
	}
	*s.rows = rows
	slices.SortStableFunc(rows, func(x, y []types.Value) int {
		c, _ := types.Compare(x[s.col], y[s.col])
		return c
	})
	n, m := len(b.Aggs), len(rows)
	accs := newAccs(make([]agg.Acc, 0, len(feed.args)), feed.args)
	res := make([]types.Value, (m+1)*n)
	for k := 0; k <= m; k++ {
		if k > 0 {
			if err := ex.tick(); err != nil {
				return nil, nil, err
			}
			row := rows[k-1]
			if s.suffix() {
				row = rows[m-k]
			}
			if err := feed.add(ex, accs, row); err != nil {
				return nil, nil, err
			}
		}
		for j := range accs {
			res[k*n+j] = accs[j].Result()
		}
	}
	return s, res, nil
}

// suffix reports whether the groups are suffixes of the order: the right
// values above a left value, or at or above it.
func (s *sortedFold) suffix() bool { return s.theta == types.LT || s.theta == types.LE }

// entry returns the size of the group of left value v, which is its
// entry in the results table: the rows whose value w makes v θ w TRUE
// are a run at one end of the order. It is 0, the empty group, when v is
// NULL or does not compare with the column's kind.
func (s *sortedFold) entry(v types.Value) int {
	rows := *s.rows
	if len(rows) == 0 {
		return 0
	}
	if _, ok := types.Compare(v, rows[0][s.col]); !ok {
		return 0
	}
	// The run ends (prefix) or starts (suffix) at the first value above
	// v — or at or above it, for ≤ and >.
	above := s.theta == types.LT || s.theta == types.GE
	pos := sort.Search(len(rows), func(i int) bool {
		c, _ := types.Compare(rows[i][s.col], v)
		return c > 0 || c == 0 && !above
	})
	if s.suffix() {
		return len(rows) - pos
	}
	return pos
}

// split is Eqv. 5's bypass selection on the tag: it evaluates b.Tag over
// R in morsels — by the compiled program when compiled — and then, in
// one pass in R order, folds the tuples it holds TRUE on into base and
// selects the rest, FALSE or UNKNOWN: R⁻, which it returns as their
// numbers in R, in a pooled slab of room for their counted number — not
// nil when empty.
func (ex *Executor) split(b *physical.Grouping, r *storage.Relation, compiled bool, feed *aggFeed, base []agg.Acc, env *Env) (*slab[int32], error) {
	truth := morselEval(ex, compiled, b.VecTag, r, env,
		func(w *Executor, row *Env) (types.TriBool, error) { return w.EvalPred(b.TagBound, row) })
	type morsel struct {
		truth []types.TriBool
		neg   int
	}
	chunks, err := parMorsels(ex, len(r.Tuples), func(w *Executor, lo, hi int) (m morsel, err error) {
		if m.truth, err = truth(w, lo, hi); err != nil {
			return m, err
		}
		for _, t := range m.truth {
			if !t.IsTrue() {
				m.neg++
			}
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	negs := 0
	for _, c := range chunks {
		negs += c.neg
	}
	neg, i := selSlabs.take(negs), 0
	for _, c := range chunks {
		for _, t := range c.truth {
			if err := ex.tick(); err != nil {
				return nil, err
			}
			if !t.IsTrue() {
				*neg = append(*neg, int32(i))
			} else if err := feed.add(ex, base, r.Tuples[i]); err != nil {
				return nil, err
			}
			i++
		}
	}
	return neg, nil
}

// writeKept cuts the rows of a binary grouping's morsel that picks
// records, each left ◦ its total results in res, from one slab of
// exactly their number — or, when b passes its left rows, takes each as
// its left row cut to width; out says what of them comes back.
func (w *Executor) writeKept(b *physical.BinaryGroup, picks [][2]int32, left [][]types.Value, res []types.Value, total int, out physical.Output) rows {
	m, width := newRows(len(picks), out), b.Schema().Len()
	var slab rowSlab
	if !b.PassLeft {
		slab = m.slab(w, width, len(picks))
	}
	for _, p := range picks {
		var r []types.Value // none for a tuple whose emit list reads none
		if p[1] >= 0 {
			r = res[p[1]:][:total]
		}
		if b.PassLeft {
			m.list = append(m.list, left[p[0]][:width:width])
		} else {
			m.list = append(m.list, slab.emitRow(b.Emit, left[p[0]], r))
		}
	}
	return m
}
