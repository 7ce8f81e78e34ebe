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
	// cols[i] holds the positions of a Star item's ArgAttrs; nil means
	// the row itself serves (it is the whole * tuple, or the aggregate —
	// a non-DISTINCT COUNT(*) — never looks at its argument).
	cols [][]int
}

func newAggInputs(items []algebra.AggItem, sch *storage.Schema) (*aggInputs, error) {
	ai := &aggInputs{items: items, sch: sch, cols: make([][]int, len(items))}
	for i, item := range items {
		if !item.Spec.Star || !item.Spec.Distinct || len(item.ArgAttrs) == 0 {
			continue
		}
		idx, err := sch.Projection(item.ArgAttrs)
		if err != nil {
			return nil, err
		}
		whole := len(idx) == sch.Len()
		for j, c := range idx {
			whole = whole && c == j
		}
		if !whole {
			ai.cols[i] = idx
		}
	}
	return ai, nil
}

// args evaluates item i's argument tuple for one input row: the
// evaluated Arg expression, or for Star specs the row restricted to
// ArgAttrs.
func (ai *aggInputs) args(w *Executor, i int, row []types.Value, env *Env) ([]types.Value, error) {
	item := ai.items[i]
	if item.Spec.Star {
		idx := ai.cols[i]
		if idx == nil {
			return row, nil
		}
		out := make([]types.Value, len(idx))
		for j, c := range idx {
			out[j] = row[c]
		}
		return out, nil
	}
	v, err := w.EvalExpr(item.Arg, Bind(env, ai.sch, row))
	if err != nil {
		return nil, err
	}
	return []types.Value{v}, nil
}

// add feeds one input row to every item's accumulator.
func (ai *aggInputs) add(w *Executor, accs []*agg.Acc, row []types.Value, env *Env) error {
	for i := range ai.items {
		args, err := ai.args(w, i, row, env)
		if err != nil {
			return err
		}
		accs[i].Add(args)
	}
	return nil
}

// group is one bucket of the hash grouping.
type group struct {
	key  []types.Value
	accs []*agg.Acc
}

func newAccs(items []algebra.AggItem) []*agg.Acc {
	accs := make([]*agg.Acc, len(items))
	for i, it := range items {
		accs[i] = agg.NewAcc(it.Spec)
	}
	return accs
}

// groupTable is a hash grouping with deterministic first-appearance
// output order and Identical key semantics (NULL groups with NULL).
type groupTable struct {
	buckets map[uint64][]*group
	order   []*group
}

func newGroupTable() *groupTable {
	return &groupTable{buckets: make(map[uint64][]*group)}
}

func (gt *groupTable) find(key []types.Value, items []algebra.AggItem) *group {
	h := types.HashTuple(key)
	for _, grp := range gt.buckets[h] {
		if types.TuplesIdentical(grp.key, key) {
			return grp
		}
	}
	grp := &group{key: append([]types.Value(nil), key...), accs: newAccs(items)}
	gt.buckets[h] = append(gt.buckets[h], grp)
	gt.order = append(gt.order, grp)
	return grp
}

// evalGroup implements the unary grouping operator Γ. Each morsel builds
// a private groupTable; the partials are merged in morsel order, so the
// merged discovery order equals the sequential first-appearance order
// and aggregate folds see their inputs in the same order regardless of
// the worker count (forceChunks pins the chunk boundaries to the input
// size). A Global grouping emits exactly one row even on empty input —
// the SQL scalar aggregate.
func (ex *Executor) evalGroup(g *physical.Group, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(g.Child, env)
	if err != nil {
		return nil, err
	}
	ai, err := newAggInputs(g.Aggs, in.Schema)
	if err != nil {
		return nil, err
	}
	chunks, err := parMorsels(ex, len(in.Tuples), true,
		func(w *Executor, lo, hi int) (*groupTable, error) {
			gt := newGroupTable()
			for _, t := range in.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				grp := gt.find(keyOf(t, g.KeyCols), g.Aggs)
				if err := ai.add(w, grp.accs, t, env); err != nil {
					return nil, err
				}
			}
			return gt, nil
		})
	if err != nil {
		return nil, err
	}
	merged := chunks[0]
	for _, gt := range chunks[1:] {
		for _, grp := range gt.order {
			dst := merged.find(grp.key, g.Aggs)
			for i := range dst.accs {
				dst.accs[i].Merge(grp.accs[i])
			}
		}
	}
	if g.Global && len(merged.order) == 0 {
		merged.find(nil, g.Aggs)
	}

	out := storage.NewRelation(g.Schema())
	out.Tuples = make([][]types.Value, 0, len(merged.order))
	for _, grp := range merged.order {
		row := make([]types.Value, 0, len(grp.key)+len(grp.accs))
		row = append(row, grp.key...)
		for _, a := range grp.accs {
			row = append(row, a.Result())
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// binaryGroupRow extends a left tuple with the aggregate results.
func binaryGroupRow(lt []types.Value, accs []*agg.Acc) []types.Value {
	row := make([]types.Value, 0, len(lt)+len(accs))
	row = append(row, lt...)
	for _, a := range accs {
		row = append(row, a.Result())
	}
	return row
}

// evalBinaryGroup is Γ² by probing, with or without Eqv. 5's tag. Per
// left tuple x the group is σ_tag(R) ∪̇ σ_Pred(x)(σ_{¬tag}(R)); untagged,
// σ_tag(R) is empty and σ_{¬tag}(R) is R itself, shared rather than
// copied. R is split once on the tag column; R⁺ is folded once, in input
// order, into base accumulators that every left tuple's accumulators
// overlay; R⁻ is hashed on the equality keys (May & Moerkotte's
// main-memory binary grouping) or, when there are none, scanned
// evaluating Pred per pair, and each left tuple adds only its matches,
// in ascending R⁻ order, with f(∅) for empty match sets (no count bug by
// construction). Nothing of size |L|·|R| is built, and since the base
// fold is sequential and each left tuple owns its overlays the fold
// order — hence any float rounding — is the same for every worker count.
func (ex *Executor) evalBinaryGroup(b *physical.BinaryGroup, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(b.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(b.R, env)
	if err != nil {
		return nil, err
	}
	ai, err := newAggInputs(b.Aggs, r.Schema)
	if err != nil {
		return nil, err
	}
	base := newAccs(b.Aggs)
	neg := r
	if b.TagCol >= 0 {
		neg = storage.NewRelation(r.Schema)
		for _, rt := range r.Tuples {
			if err := ex.tick(); err != nil {
				return nil, err
			}
			if types.TriFromValue(rt[b.TagCol]).IsTrue() {
				if err := ai.add(ex, base, rt, env); err != nil {
					return nil, err
				}
			} else {
				neg.Tuples = append(neg.Tuples, rt)
			}
		}
	}
	var ht *hashTable
	if len(b.LCols) > 0 {
		ex.stats.HashJoins++
		if ht, err = ex.buildHashTable(neg, b.RCols); err != nil {
			return nil, err
		}
	} else {
		ex.stats.NLJoins++
	}
	chunks, err := parMorsels(ex, len(l.Tuples), false,
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			out := make([][]types.Value, 0, hi-lo)
			// Pred sees the pair through two stacked frames, rebound per
			// tuple, instead of a concatenated row per pair.
			lf := &Env{parent: env, schema: l.Schema}
			rf := &Env{parent: lf, schema: r.Schema}
			p := ht.prober(b.LCols)
			accs := make([]*agg.Acc, len(base))
			for _, lt := range l.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				for i := range base {
					accs[i] = agg.Overlay(base[i])
				}
				if ht != nil {
					for rt := p.first(lt); rt != nil; rt = p.next() {
						if err := ai.add(w, accs, rt, env); err != nil {
							return nil, err
						}
					}
				} else {
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
						if err := ai.add(w, accs, rt, env); err != nil {
							return nil, err
						}
					}
				}
				out = append(out, binaryGroupRow(lt, accs))
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
