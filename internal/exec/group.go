package exec

import (
	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// aggInputs resolves a grouping operator's aggregate arguments against
// its input schema once, so the per-row work is only the evaluation.
type aggInputs struct {
	items []algebra.AggItem
	sch   *storage.Schema
	// specs[i] is the spec item i's accumulators run: the item's, less
	// the DISTINCT that means nothing (MIN, MAX) or that Γ applies itself
	// (dedup).
	specs []agg.Spec
	// cols[i], for a DISTINCT item whose argument is columns of the input,
	// holds those columns: its accumulator is fed the row and keys its
	// DISTINCT set on them (agg.Acc.AddOn), or Γ dedups on them. Any other
	// Star item is fed the row, and any other item the value of its
	// argument expression.
	cols [][]int
	// dedup[i], for a DISTINCT item of Γ whose argument is columns of the
	// input, holds the grouping columns followed by those: the rows
	// distinct on them are the item's distinct (group, argument) pairs.
	dedup [][]int
}

// newAggInputs resolves items over an input of schema sch. keyCols are
// Γ's grouping columns; the binary groupings, which accumulate per left
// tuple rather than per input group, pass nil.
func newAggInputs(items []algebra.AggItem, sch *storage.Schema, keyCols []int) (*aggInputs, error) {
	ai := &aggInputs{items: items, sch: sch, specs: make([]agg.Spec, len(items)),
		cols: make([][]int, len(items)), dedup: make([][]int, len(items))}
	for i, item := range items {
		ai.specs[i] = item.Spec
		if !item.Spec.Distinct {
			continue
		}
		if item.Spec.Kind == agg.Min || item.Spec.Kind == agg.Max {
			ai.specs[i].Distinct = false
			continue
		}
		var arg []int // the argument as input columns, when it is that
		switch {
		case item.Spec.Star && len(item.ArgAttrs) > 0:
			idx, err := sch.Projection(item.ArgAttrs)
			if err != nil {
				return nil, err
			}
			arg = idx
		case item.Spec.Star:
			for c := 0; c < sch.Len(); c++ {
				arg = append(arg, c)
			}
		default:
			if ref, ok := item.Arg.(*algebra.ColRef); ok && sch.Has(ref.Name) {
				arg = []int{sch.Index(ref.Name)}
			}
		}
		ai.cols[i] = arg
		if keyCols != nil && arg != nil {
			ai.dedup[i] = append(append([]int(nil), keyCols...), arg...)
			ai.specs[i].Distinct = false
		}
	}
	return ai, nil
}

// aggFeed feeds one morsel's input rows to accumulators: it owns the
// frame the argument expressions see each row through and the buffer
// their values are handed over in, so a row costs no allocation.
type aggFeed struct {
	*aggInputs
	frame Env
	one   [1]types.Value
}

func (ai *aggInputs) feed(env *Env) *aggFeed {
	return &aggFeed{aggInputs: ai, frame: Env{parent: env, schema: ai.sch}}
}

// addTo feeds one input row to item i's accumulator: by its argument
// columns when it has them (the row itself for Star), else the evaluated
// argument expression — in the feed's buffer, or, for a DISTINCT
// accumulator, which retains its argument, in a fresh slice.
func (f *aggFeed) addTo(w *Executor, acc *agg.Acc, i int, row []types.Value) error {
	item := &f.items[i]
	if item.Spec.Star || f.cols[i] != nil {
		acc.AddOn(row, f.cols[i])
		return nil
	}
	f.frame.tuple = row
	v, err := w.EvalExpr(item.Arg, &f.frame)
	if err != nil {
		return err
	}
	if f.specs[i].Distinct {
		acc.AddOn([]types.Value{v}, nil)
		return nil
	}
	f.one[0] = v
	acc.AddOn(f.one[:], nil)
	return nil
}

// add feeds one input row to the accumulator of every item but those Γ
// dedups itself (evalGroup's second pass).
func (f *aggFeed) add(w *Executor, accs []agg.Acc, row []types.Value) error {
	for i := range f.items {
		if f.dedup[i] != nil {
			continue
		}
		if err := f.addTo(w, &accs[i], i, row); err != nil {
			return err
		}
	}
	return nil
}

// groupTable is a hash grouping with deterministic first-appearance
// output order and Identical key semantics (NULL groups with NULL). A
// group is an entry of the index — the group's first input row, keyed on
// the grouping columns — and its accumulators sit beside it in one slab,
// entry e's at accs[e*len(specs):].
type groupTable struct {
	ix    *types.RowIndex
	specs []agg.Spec
	accs  []agg.Acc
	// first[e] is the input index of entry e's row, kept (first non-nil)
	// when the table is one of several key partitions, whose groups are
	// merged on it; next is the next entry to emit.
	first []int32
	next  int
}

// find returns the accumulators of row i's group, which the row founds
// when it is the first of it; h is the row's key hash.
func (gt *groupTable) find(row []types.Value, i int, h uint64) []agg.Acc {
	e, added := gt.ix.FindOrAddHashed(row, h)
	if added {
		gt.accs = appendAccs(gt.accs, gt.specs)
		if gt.first != nil {
			gt.first = append(gt.first, int32(i))
		}
	}
	return gt.accs[int(e)*len(gt.specs):][:len(gt.specs)]
}

func appendAccs(accs []agg.Acc, specs []agg.Spec) []agg.Acc {
	for _, spec := range specs {
		accs = append(accs, *agg.NewAcc(spec))
	}
	return accs
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

// evalGroup implements the unary grouping operator Γ, which folds every
// group once, in input order: with P = fanout(n) key partitions, the
// keys are hashed in morsels, then partition p folds the rows whose hash
// falls in it into a table of its own, P partitions over P workers. A
// group's rows all fall in one partition, so each group is the
// sequential left fold of its rows at every worker count and every
// morsel size — float sums included — and the output, merged by each
// group's first row, is in first-appearance order. One worker, or a
// Global grouping (one group), is one partition and no hashing pass. A
// DISTINCT aggregate over input columns is deduplicated by Γ itself, in
// the same fold: a row feeds it when the row is new on (grouping
// columns, argument columns) — one index per partition where every
// group's accumulator would otherwise keep a set of its own. A Global
// grouping emits exactly one row even on empty input — the SQL scalar
// aggregate.
func (ex *Executor) evalGroup(g *physical.Group, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(g.Child, env)
	if err != nil {
		return nil, err
	}
	ai, err := newAggInputs(g.Aggs, in.Schema, g.KeyCols)
	if err != nil {
		return nil, err
	}
	n, parts := len(in.Tuples), 1
	if len(g.KeyCols) > 0 {
		parts = ex.fanout(n)
	}
	tables := make([]*groupTable, parts)
	for p := range tables {
		tables[p] = &groupTable{ix: types.NewRowIndex(g.KeyCols, false, 0), specs: ai.specs}
	}
	var hashes []uint64
	if parts > 1 {
		hashes = make([]uint64, n)
		if _, err := parMorsels(ex, n, func(w *Executor, lo, hi int) (struct{}, error) {
			for i, t := range in.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return struct{}{}, err
				}
				hashes[lo+i], _ = tables[0].ix.Hash(t, g.KeyCols)
			}
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
		for _, gt := range tables {
			gt.first = []int32{}
		}
	} else {
		ex.creditMorsels(n)
	}
	// fold folds partition p: the rows whose key hash falls in it, every
	// row when there is one partition.
	fold := func(w *Executor, p int) (struct{}, error) {
		gt, feed := tables[p], ai.feed(env)
		var seen []*types.RowIndex // per DISTINCT item Γ dedups
		for j, cols := range ai.dedup {
			if cols != nil {
				if seen == nil {
					seen = make([]*types.RowIndex, len(ai.dedup))
				}
				seen[j] = types.NewRowIndex(cols, false, n/parts)
			}
		}
		for i, t := range in.Tuples {
			var h uint64
			if hashes != nil {
				if h = hashes[i]; partOf(h, parts) != p {
					continue
				}
			} else {
				h, _ = gt.ix.Hash(t, g.KeyCols)
			}
			if err := w.tick(); err != nil {
				return struct{}{}, err
			}
			accs := gt.find(t, i, h)
			if err := feed.add(w, accs, t); err != nil {
				return struct{}{}, err
			}
			for j, s := range seen {
				if s == nil {
					continue
				}
				if _, added := s.FindOrAdd(t); !added {
					continue
				}
				if err := feed.addTo(w, &accs[j], j, t); err != nil {
					return struct{}{}, err
				}
			}
		}
		return struct{}{}, nil
	}
	if parts == 1 {
		_, err = runMorsel(ex, 0, n, func(w *Executor, _, _ int) (struct{}, error) { return fold(w, 0) })
	} else {
		_, err = parTasks(ex, parts, parts, func(w *Executor, p int) (struct{}, error) {
			return runMorsel(w, 0, n, func(w *Executor, _, _ int) (struct{}, error) { return fold(w, p) })
		})
	}
	if err != nil {
		return nil, err
	}
	if g.Global && tables[0].ix.Len() == 0 {
		h, _ := tables[0].ix.Hash(nil, g.KeyCols)
		tables[0].find(nil, 0, h)
	}

	groups, na := 0, len(g.Aggs)
	for _, gt := range tables {
		groups += gt.ix.Len()
	}
	out := storage.NewRelation(g.Schema())
	out.Tuples = make([][]types.Value, groups)
	slab := ex.slab(len(g.KeyCols)+na, groups)
	for k := range out.Tuples {
		gt := tables[0] // the partition whose next group appeared first
		for _, q := range tables[1:] {
			if q.next < len(q.first) && (gt.next == len(gt.first) || q.first[q.next] < gt.first[gt.next]) {
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
		out.Tuples[k] = row
	}
	return out, nil
}

// evalBinaryGroup is Γ² by probing, with or without Eqv. 5's tag. Per
// left tuple x the group is σ_tag(R) ∪̇ σ_Pred(x)(σ_{¬tag}(R)); untagged,
// σ_tag(R) is empty and σ_{¬tag}(R) is R itself, shared rather than
// copied. R is split once on the tag column; R⁺ is folded once, in input
// order, into base accumulators that every group's accumulators overlay,
// so an empty match set yields f(∅) (no count bug by construction).
//
// When Pred is an equality, R⁻ is hashed on its keys (May & Moerkotte's
// main-memory binary grouping) and each distinct key's rows are folded
// once, in R order, before any left tuple is read; a left tuple only
// looks its key up. Each inner group is then aggregated once however
// often left tuples repeat its key, for every aggregate, DISTINCT
// included — what the paper's Eqv. 4 pre-aggregation bought. This is
// sound because an aggregate's argument reads the inner row alone: the
// rewriter keeps a subquery nested whose argument reads the outer row,
// and a rule that let one through would have to fold per left tuple.
// Otherwise each left tuple scans R⁻, evaluating Pred per pair, into
// overlays of its own.
//
// Nothing of size |L|·|R| is built, and since every fold runs in R order
// on one goroutine, the fold order — hence any float rounding — is the
// same for every worker count.
func (ex *Executor) evalBinaryGroup(b *physical.BinaryGroup, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(b.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(b.R, env)
	if err != nil {
		return nil, err
	}
	ai, err := newAggInputs(b.Aggs, r.Schema, nil)
	if err != nil {
		return nil, err
	}
	n := len(b.Aggs)
	base := appendAccs(nil, ai.specs)
	neg := r
	feed := ai.feed(env)
	if b.TagCol >= 0 {
		neg = storage.NewRelation(r.Schema)
		for _, rt := range r.Tuples {
			if err := ex.tick(); err != nil {
				return nil, err
			}
			if types.TriFromValue(rt[b.TagCol]).IsTrue() {
				if err := feed.add(ex, base, rt); err != nil {
					return nil, err
				}
			} else {
				neg.Tuples = append(neg.Tuples, rt)
			}
		}
	}
	var (
		ht *types.RowIndex
		// group[e] numbers the key of index entry e's first entry; the
		// key's results are keyRes[group[e]*n:][:n]. Group 0 is the base
		// alone, the result for a left key R⁻ lacks or a NULL one.
		group  []int32
		keyRes []types.Value
	)
	if len(b.LCols) > 0 {
		ex.stats.HashJoins++
		if ht, err = ex.buildIndex(neg, b.RCols); err != nil {
			return nil, err
		}
		group = make([]int32, ht.Len())
		accs := append([]agg.Acc(nil), base...)
		for e := int32(0); e < int32(ht.Len()); e++ {
			if err := ex.tick(); err != nil {
				return nil, err
			}
			row := ht.Row(e)
			if first := ht.First(row, b.RCols); first == e {
				group[e] = int32(len(accs) / n)
				for i := range base {
					accs = append(accs, *agg.Overlay(&base[i]))
				}
			} else {
				group[e] = group[first]
			}
			if err := feed.add(ex, accs[int(group[e])*n:][:n], row); err != nil {
				return nil, err
			}
		}
		keyRes = make([]types.Value, len(accs))
		for i := range accs {
			keyRes[i] = accs[i].Result()
		}
	} else {
		ex.stats.NLJoins++
	}
	chunks, err := parMorsels(ex, len(l.Tuples),
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			out := make([][]types.Value, 0, hi-lo)
			slab := w.slab(b.Schema().Len(), hi-lo)
			if ht != nil {
				for _, lt := range l.Tuples[lo:hi] {
					if err := w.tick(); err != nil {
						return nil, err
					}
					res := keyRes[:n]
					if e := ht.First(lt, b.LCols); e >= 0 {
						res = keyRes[int(group[e])*n:][:n]
					}
					out = append(out, slab.emitRow(b.Emit, lt, res))
				}
				return out, nil
			}
			lf, rf := pairFrames(env, l.Schema, r.Schema)
			feed := ai.feed(env)
			accs := make([]agg.Acc, n)
			res := make([]types.Value, n)
			for _, lt := range l.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				for i := range base {
					accs[i] = *agg.Overlay(&base[i])
				}
				lf.tuple = lt
				for _, rt := range neg.Tuples {
					if err := w.tick(); err != nil {
						return nil, err
					}
					if b.Pred != nil {
						rf.tuple = rt
						match, err := w.EvalPred(b.Pred, rf)
						if err != nil {
							return nil, err
						}
						if !match.IsTrue() {
							continue
						}
					}
					if err := feed.add(w, accs, rt); err != nil {
						return nil, err
					}
				}
				for i := range accs {
					res[i] = accs[i].Result()
				}
				out = append(out, slab.emitRow(b.Emit, lt, res))
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(b.Schema())
	out.Tuples = concatChunks(chunks)
	return out, nil
}
