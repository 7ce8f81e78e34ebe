package exec

import (
	"sort"

	"disqo/internal/agg"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Sort-based binary grouping for inequality predicates, after May &
// Moerkotte's main-memory binary grouping algorithms: for a predicate
// L.a θ R.b with θ ∈ {<, ≤, >, ≥} and decomposable aggregates, sort the
// right side on b, precompute prefix/suffix aggregate arrays, and answer
// each left tuple with one binary search — O((|L|+|R|)·log|R|) instead of
// the nested loop's O(|L|·|R|). The planner (physical.Planner) proves
// applicability and resolves the column positions; the probe loop over
// the left side runs morsel-parallel (each row is independent).

// evalBinaryGroupSorted runs the sort-based algorithm.
func (ex *Executor) evalBinaryGroupSorted(b *physical.BinaryGroupSort, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(b.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(b.R, env)
	if err != nil {
		return nil, err
	}
	ex.stats.SortedGroups++
	li := b.LIdx
	ri := b.RIdx
	op := b.Op

	// Sort non-NULL right tuples by the grouping column (NULL b never
	// satisfies an inequality).
	idx := make([]int, 0, len(r.Tuples))
	for i, t := range r.Tuples {
		if !t[ri].IsNull() {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, c int) bool {
		cmp, _ := types.Compare(r.Tuples[idx[a]][ri], r.Tuples[idx[c]][ri])
		return cmp < 0
	})

	// prefix[k][i] = fI of the first i sorted tuples for aggregate k;
	// suffix[k][i] = fI of the sorted tuples from position i on.
	n := len(idx)
	prefix := make([][]types.Value, len(b.Aggs))
	suffix := make([][]types.Value, len(b.Aggs))
	ai, err := newAggInputs(b.Aggs, r.Schema, nil)
	if err != nil {
		return nil, err
	}
	feed := ai.feed(env)
	for k, item := range b.Aggs {
		pre := make([]types.Value, n+1)
		pre[0] = item.Spec.Empty()
		acc := agg.NewAcc(item.Spec)
		for i, ridx := range idx {
			if err := feed.addTo(ex, acc, k, r.Tuples[ridx]); err != nil {
				return nil, err
			}
			pre[i+1] = acc.Result()
		}
		suf := make([]types.Value, n+1)
		suf[n] = item.Spec.Empty()
		acc = agg.NewAcc(item.Spec)
		for i := n - 1; i >= 0; i-- {
			if err := feed.addTo(ex, acc, k, r.Tuples[idx[i]]); err != nil {
				return nil, err
			}
			suf[i] = acc.Result()
		}
		prefix[k] = pre
		suffix[k] = suf
	}

	na := len(b.Aggs)
	chunks, err := parMorsels(ex, len(l.Tuples),
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			kept := w.newKept(b.Keep, env, l.Schema, b.Results, hi-lo)
			res := kept.buffer(na, hi-lo) // each left tuple's results, in turn, while it is kept
			for i, lt := range l.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				at := len(res)
				v := lt[li]
				for k, item := range b.Aggs {
					if v.IsNull() {
						res = append(res, item.Spec.Empty())
						continue
					}
					// Matching right tuples form a contiguous run in sort order.
					switch op {
					case types.LT: // v < b: suffix strictly above v
						pos := sort.Search(n, func(i int) bool {
							c, _ := types.Compare(r.Tuples[idx[i]][ri], v)
							return c > 0
						})
						res = append(res, suffix[k][pos])
					case types.LE: // v <= b
						pos := sort.Search(n, func(i int) bool {
							c, _ := types.Compare(r.Tuples[idx[i]][ri], v)
							return c >= 0
						})
						res = append(res, suffix[k][pos])
					case types.GT: // v > b: prefix strictly below v
						pos := sort.Search(n, func(i int) bool {
							c, _ := types.Compare(r.Tuples[idx[i]][ri], v)
							return c >= 0
						})
						res = append(res, prefix[k][pos])
					default: // GE: v >= b
						pos := sort.Search(n, func(i int) bool {
							c, _ := types.Compare(r.Tuples[idx[i]][ri], v)
							return c > 0
						})
						res = append(res, prefix[k][pos])
					}
				}
				ok, err := kept.add(w, i, lt, res[at:], at)
				if err != nil {
					return nil, err
				}
				if !ok {
					res = res[:at]
				}
			}
			return kept.write(w, b.Emit, b.Schema().Len(), l.Tuples[lo:hi], res, na), nil
		})
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(b.Schema())
	out.Tuples = concatChunks(chunks)
	return out, nil
}
