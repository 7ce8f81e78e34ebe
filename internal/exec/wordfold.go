package exec

import (
	"cmp"
	"slices"

	"disqo/internal/agg"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// wordFold is what a hashed grouping's fold by columns (foldWords) reads
// of R: its key column and, per item, a wordItem.
type wordFold struct {
	keys     *storage.ColVec
	items    []wordItem
	distinct bool // an item is
}

// wordItem is what the fold by columns reads of R for one item: the int
// column of its argument — nil for COUNT(*) and COUNT(DISTINCT *), which
// count rows — and, for a DISTINCT item, the int columns of its Dedup
// after the key.
type wordItem struct {
	kind     agg.Kind
	arg      *storage.ColVec
	distinct bool
	dedup    []*storage.ColVec
}

// rowFolds keeps every hashed grouping on the fold by rows (foldKeys):
// the tests' way to run the vector path on the fold the column fold is
// checked against.
var rowFolds bool

// wordFoldOf returns how grouping g folds R⁻ by columns, and false when
// it folds rows (foldKeys): it folds columns when keys, R's key column, is one int
// column of a base table's scan on the vector path (keyColumn), and
// every item is COUNT(*), or COUNT, SUM, MIN or MAX over an int column
// of R — or, untagged, COUNT(DISTINCT *), or COUNT or SUM DISTINCT over
// an int column, whose Dedup columns are int columns too. The columns
// are R's batch's, built once per table version. The check runs once
// per grouping.
func (ex *Executor) wordFoldOf(g *physical.Grouping, r *storage.Relation, keys *storage.ColVec) (wordFold, bool) {
	wf := wordFold{keys: keys}
	if keys == nil || rowFolds {
		return wf, false
	}
	batch := r.Batch()
	wf.items = make([]wordItem, len(g.Args))
	for j := range g.Args {
		a, it := &g.Args[j], &wf.items[j]
		it.kind, it.distinct = a.Spec.Kind, a.Spec.Distinct
		switch {
		case it.kind == agg.Avg:
			return wf, false
		case a.Spec.Star:
		case len(a.Cols) == 1:
			if it.arg = batch.Col(a.Cols[0]); !wordColumn(it.arg) {
				return wf, false
			}
		default:
			return wf, false
		}
		if !it.distinct {
			continue
		}
		if g.Tag != nil || a.Dedup == nil {
			return wf, false
		}
		wf.distinct = true
		it.dedup = make([]*storage.ColVec, len(a.Dedup)-len(g.RCols))
		for k, c := range a.Dedup[len(g.RCols):] {
			if it.dedup[k] = batch.Col(c); !wordColumn(it.dedup[k]) {
				return wf, false
			}
		}
	}
	return wf, true
}

// wordColumn reports whether cv's values are ints and NULLs.
func wordColumn(cv *storage.ColVec) bool {
	return cv.Mixed == nil && (cv.Kind == types.KindInt || cv.Kind == types.KindNull)
}

// foldWords is the hashed binary grouping's fold of R⁻, the rows neg
// selects of r, by the columns wf: in key partitions as foldGroups',
// partition p finds each of its rows' key entry by the key's word and
// folds the row's argument into the entry's words, two per item
// (foldWord). A DISTINCT item is folded after, per key, by sorting the
// key's rows on its Dedup words (dedupWords). No accumulator and no
// DISTINCT index is built: each key's results are written from its words
// straight into the results table, continuing base's (mergeWords). Int
// folds are order-free, so the results are the same at every worker
// count and morsel size. The tables, results and their layout are
// foldKeys'.
func (ex *Executor) foldWords(g *physical.Grouping, wf wordFold, r *storage.Relation, neg []int32, base []agg.Acc) ([]*groupTable, *slab[types.Value], error) {
	n, na := selLen(r.Tuples, neg), len(g.Args)
	parts := ex.fanout(n)
	groups := estGroups(g.Groups, n) / parts
	tables := make([]*groupTable, parts)
	for p := range tables {
		tables[p] = &groupTable{ix: types.NewRowIndex(r.Tuples, g.RCols, true, groups), words: takeFold()}
	}
	defer func() {
		for _, gt := range tables {
			gt.words.release()
			gt.words = nil
		}
	}()
	ex.creditMorsels(n)
	fold := func(w *Executor, p int) (struct{}, error) {
		gt, sc := tables[p], tables[p].words
		for at := range n {
			i := pick(neg, at)
			k, ok := intKey(wf.keys, i)
			if !ok {
				continue
			}
			h := gt.ix.HashWord(k)
			if parts > 1 && partOf(h, parts) != p {
				continue
			}
			if err := w.tick(); err != nil {
				return struct{}{}, err
			}
			e, added := gt.ix.FindOrAddWord(int32(i), k, h)
			if added {
				sc.words = append(sc.words, make([]int64, 2*na)...)
			}
			if wf.distinct {
				sc.frows, sc.fents = append(sc.frows, int32(i)), append(sc.fents, e)
			}
			words := sc.words[2*na*int(e):][:2*na]
			for j := range wf.items {
				if it := &wf.items[j]; !it.distinct {
					foldWord(it.kind, it.arg, i, words[2*j:])
				}
			}
		}
		if wf.distinct {
			dedupWords(wf.items, sc, gt.ix.Len())
		}
		return struct{}{}, nil
	}
	if err := ex.eachPart(parts, n, fold); err != nil {
		return nil, nil, err
	}
	size := na
	for _, gt := range tables {
		size += gt.ix.Len() * na
	}
	sl := valueSlabs.take(size)
	res := (*sl)[:na]
	for j := range g.Args {
		if res[j] = g.Args[j].Spec.Empty(); base != nil {
			res[j] = base[j].Result()
		}
	}
	for _, gt := range tables {
		gt.res = len(res)
		words := gt.words.words
		for e := range gt.ix.Len() {
			for j := range wf.items {
				res = append(res, mergeWords(wf.items[j].kind, res[j], words[2*(e*na+j):]))
			}
		}
	}
	*sl = res
	return tables, sl, nil
}

// foldWord folds row i's argument into w: the value of col there — none
// when it is NULL — or, when col is nil, the row itself (COUNT(*)).
// w[0] counts the arguments folded and w[1] holds their SUM, MIN or MAX.
func foldWord(kind agg.Kind, col *storage.ColVec, i int, w []int64) {
	if col == nil {
		w[0]++
		return
	}
	if col.Nulls != nil && col.Nulls[i] {
		return
	}
	switch v := col.Ints[i]; {
	case kind == agg.Sum:
		w[1] += v
	case w[0] == 0, kind == agg.Min && v < w[1], kind == agg.Max && v > w[1]:
		w[1] = v
	}
	w[0]++
}

// mergeWords returns the result of an item of kind over base's rows and
// then a key's: b is base's result, w the key's words (foldWord). COUNTs
// and SUMs add, MIN and MAX keep the lesser or greater; a key that folded
// no argument keeps b, and over a NULL b — base folded none — its words
// are the result.
func mergeWords(kind agg.Kind, b types.Value, w []int64) types.Value {
	bv, ok := b.IntOk()
	switch {
	case kind == agg.Count:
		return types.NewInt(bv + w[0])
	case w[0] == 0:
		return b
	case !ok:
		return types.NewInt(w[1])
	case kind == agg.Sum:
		return types.NewInt(bv + w[1])
	case kind == agg.Min && bv <= w[1], kind == agg.Max && bv >= w[1]:
		return b
	}
	return types.NewInt(w[1])
}

// dedupWords folds the DISTINCT items of one partition of keys entries
// whose rows, in R order, are sc.frows, each of key entry sc.fents. It
// counting-sorts the rows by entry into sc.perm, so each key's rows are
// a run, in R order, and then, per item, sorts each run on the item's
// Dedup words after the key (compareWords) and folds the first row of
// every run of equal words — the key's distinct arguments, NULL one of
// them — into the key's words.
func dedupWords(items []wordItem, sc *colScratch, keys int) {
	sc.ends = slices.Grow(sc.ends[:0], keys+1)[:keys+1]
	clear(sc.ends)
	for _, e := range sc.fents {
		sc.ends[e+1]++
	}
	for e := 1; e <= keys; e++ {
		sc.ends[e] += sc.ends[e-1]
	}
	// ends[e] is where entry e's run starts, and once its rows are placed,
	// where it ends.
	sc.perm = slices.Grow(sc.perm[:0], len(sc.frows))[:len(sc.frows)]
	for k, i := range sc.frows {
		e := sc.fents[k]
		sc.perm[sc.ends[e]] = i
		sc.ends[e]++
	}
	na := len(items)
	for j := range items {
		it := &items[j]
		if !it.distinct {
			continue
		}
		start := int32(0)
		for e := range keys {
			run := sc.perm[start:sc.ends[e]]
			start = sc.ends[e]
			slices.SortFunc(run, func(a, b int32) int { return compareWords(it.dedup, a, b) })
			w := sc.words[2*(e*na+j):]
			for k, i := range run {
				if k == 0 || compareWords(it.dedup, run[k-1], i) != 0 {
					foldWord(it.kind, it.arg, int(i), w)
				}
			}
		}
	}
}

// compareWords orders rows a and b on the int columns cols, in order: a
// NULL before every int and equal to a NULL.
func compareWords(cols []*storage.ColVec, a, b int32) int {
	for _, cv := range cols {
		an, bn := cv.Nulls != nil && cv.Nulls[a], cv.Nulls != nil && cv.Nulls[b]
		switch {
		case an && bn:
		case an:
			return -1
		case bn:
			return 1
		case cv.Ints[a] != cv.Ints[b]:
			return cmp.Compare(cv.Ints[a], cv.Ints[b])
		}
	}
	return 0
}
