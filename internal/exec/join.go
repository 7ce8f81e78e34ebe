package exec

import (
	"sync/atomic"

	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// buildIndex hashes the build side of a join or binary grouping on its
// key columns; rows with a NULL key column are left out, SQL equality
// can never match them. Key hashing is spread over morsels; insertion
// stays sequential in tuple order, so a probe meets its matches in
// ascending tuple order regardless of the worker count (probe output
// order depends on it).
func (ex *Executor) buildIndex(rel *storage.Relation, keyCols []int) (*types.RowIndex, error) {
	ex.creditHashBuild(len(rel.Tuples))
	ix := types.NewRowIndex(rel.Tuples, keyCols, true, len(rel.Tuples))
	type hashed struct {
		h  uint64
		ok bool
	}
	chunks, err := parMorsels(ex, len(rel.Tuples),
		func(w *Executor, lo, hi int) ([]hashed, error) {
			out := make([]hashed, hi-lo)
			for i, t := range rel.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				out[i].h, out[i].ok = ix.Hash(t, keyCols)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	i := int32(0)
	for _, c := range chunks {
		for _, hk := range c {
			if hk.ok {
				ix.Add(i, hk.h)
			}
			i++
		}
	}
	return ix, nil
}

// rowSlab hands out an operator's output rows cut from shared chunks of
// values, so rows cost an allocation per chunk, not one each. A row is
// buf[:w:w]: its capacity is its length, so appending to it reallocates
// instead of writing into its neighbour. A chunk holds the rows still to
// be cut, which callers count exactly, but at most one morsel's worth,
// so a row that outlives its siblings keeps at most one chunk alive.
// When the rows come back to the pools (rows.slab), the chunks are taken
// from there and recorded in own; otherwise they are made to size.
type rowSlab struct {
	buf          []types.Value
	width, rows  int // row width; rows still to be cut
	maxChunkRows int
	own          *storage.Owned
}

// slab returns a slab for n rows of the given width, made to size.
func (ex *Executor) slab(width, n int) rowSlab {
	return rowSlab{width: width, rows: n, maxChunkRows: ex.msize}
}

// next cuts the next row.
func (s *rowSlab) next() []types.Value {
	if s.buf == nil || len(s.buf) < s.width {
		n := min(max(s.rows, 1), s.maxChunkRows) * s.width
		if s.own == nil {
			s.buf = make([]types.Value, n)
		} else {
			sl := valueSlabs.take(n)
			*sl = (*sl)[:n]
			s.own.Rows = append(s.own.Rows, (*[]types.Value)(sl))
			s.buf = *sl
		}
	}
	row := s.buf[:s.width:s.width]
	s.buf = s.buf[s.width:]
	s.rows--
	return row
}

// emitRow writes an operator's output row from the pair l ◦ r into the
// slab's next row: every column when emit is nil, else the listed
// positions of it. It is the one place a joined, mapped or
// binary-grouped row is built, and builds it once, at its final width.
func (s *rowSlab) emitRow(emit []int, l, r []types.Value) []types.Value {
	row := s.next()
	if emit == nil {
		copy(row[copy(row, l):], r)
		return row
	}
	for i, c := range emit {
		if c < len(l) {
			row[i] = l[c]
		} else {
			row[i] = r[c-len(l)]
		}
	}
	return row
}

// pairFrames returns two stacked frames, pushed once per morsel,
// through which a predicate sees a pair l ◦ r without the row being
// built — r at depth 0, l at depth 1: the caller overwrites their
// tuples per pair (holds) and evaluates on rf.
func pairFrames(env *Env) (lf, rf *Env) {
	lf = &Env{parent: env}
	return lf, &Env{parent: lf}
}

// holds reports whether pred is TRUE on the pair l ◦ r, which it sees
// through the frames of pairFrames; a nil pred holds on every pair.
func (ex *Executor) holds(pred *physical.Bound, lf, rf *Env, l, r []types.Value) (bool, error) {
	if pred == nil {
		return true, nil
	}
	lf.tuple, rf.tuple = l, r
	t, err := ex.EvalPred(pred, rf)
	return t.IsTrue(), err
}

// evalJoin is every join, in morsels over the left input. The candidate
// partners of a left tuple are the right tuples equal on the key columns
// — probed from a hash index built on the right input — or, when the
// join has no key columns, all of them (nested loops); a candidate
// matches when j.Pred (the hash join's residual, the nested-loop join's
// whole predicate; nil for none) holds on the pair, which the predicate
// sees through two frames. An inner join emits each matching pair; semi
// and anti joins pass the left tuple through on (no) match and stop at
// the first one. A morsel first records each output as a pair (the left
// tuple's offset, its partner), then cuts exactly that many rows from
// one slab — or, when the join passes its left rows (PassLeft: it emits
// a prefix of them), takes each pair's left row cut to the output width.
// A cross product — nested loops without a predicate — is not counted as
// an NL join. On the vector path a left input that is a base table's
// scan with one int key column is probed by its keys' words, read from
// the column (keyColumn): a left row is touched only when it has a
// partner, or passes an anti join, a NULL key included. The build side's
// index goes back to its pool once the probe's workers are joined: an
// output row holds right rows, never the index. Then both inputs are
// handed back: an inner join's rows are copies, a semi, anti or PassLeft
// join's the left input's rows, which its output then owns.
func (ex *Executor) evalJoin(j *physical.Join, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(j.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(j.R, env)
	if err != nil {
		return nil, err
	}
	var ht *types.RowIndex
	switch {
	case j.LCols != nil:
		ex.stats.HashJoins++
		if ht, err = ex.buildIndex(r, j.RCols); err != nil {
			return nil, err
		}
	case j.Pred != nil:
		ex.stats.NLJoins++
	}
	if _, err := ex.vecEnter(j); err != nil {
		return nil, err
	}
	exists := j.Mode != physical.JoinInner // semi/anti need only existence
	width := j.Schema().Len()
	var lkey *storage.ColVec // the left key column, read as words
	if ht != nil {
		lkey = ex.keyColumn(j.L, l, j.LCols)
	}
	out := ex.output(j, env)
	var pending atomic.Int64 // operator-wide output size for the budget
	chunks, err := parMorsels(ex, len(l.Tuples),
		func(w *Executor, lo, hi int) (rows, error) {
			ps := pairSlabs.take(hi - lo)
			pairs := *ps
			lf, rf := pairFrames(env)
			for i, lt := range l.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return rows{}, err
				}
				if err := w.checkBudget(int(pending.Load())); err != nil {
					return rows{}, err
				}
				before, matched := len(pairs), false
				e, next := int32(-1), 0
				k, word := intKey(lkey, lo+i)
				switch {
				case word:
					e = ht.FirstWord(k, ht.HashWord(k))
				case ht != nil && lkey == nil:
					e = ht.First(lt, j.LCols)
				}
				for !matched || !exists {
					var rt []types.Value
					var partner int32
					if ht != nil {
						if e < 0 {
							break
						}
						partner, rt = ht.RowNum(e), ht.Row(e)
						if word {
							e = ht.NextWord(e, k)
						} else {
							e = ht.Next(e, lt, j.LCols)
						}
					} else {
						if next == len(r.Tuples) {
							break
						}
						partner, rt, next = int32(next), r.Tuples[next], next+1
					}
					if err := w.tick(); err != nil {
						return rows{}, err
					}
					ok, err := w.holds(j.Bound, lf, rf, lt, rt)
					if err != nil {
						return rows{}, err
					}
					if !ok {
						continue
					}
					matched = true
					if !exists {
						pairs = append(pairs, [2]int32{int32(i), partner})
					}
				}
				if exists && matched == (j.Mode == physical.JoinSemi) {
					pairs = append(pairs, [2]int32{int32(i), -1}) // the left tuple passes
				}
				if n := len(pairs) - before; n > 0 {
					pending.Add(int64(n))
				}
			}
			m := newRows(len(pairs), out)
			var slab rowSlab
			if !exists && !j.PassLeft {
				slab = m.slab(w, width, len(pairs))
			}
			for _, p := range pairs {
				lt := l.Tuples[lo+int(p[0])]
				switch {
				case exists:
					m.list = append(m.list, lt)
				case j.PassLeft:
					m.list = append(m.list, lt[:width:width])
				default:
					m.list = append(m.list, slab.emitRow(j.Emit, lt, r.Tuples[p[1]]))
				}
			}
			*ps = pairs
			pairSlabs.put(ps)
			return m, nil
		})
	if err != nil {
		return nil, err
	}
	if ht != nil {
		ht.Release()
	}
	rel := relation(j.Schema(), chunks, out)
	handBack(j, 0, l, rel)
	handBack(j, 1, r, rel)
	return rel, nil
}
