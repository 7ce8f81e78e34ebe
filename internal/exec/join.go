package exec

import (
	"sync/atomic"

	"disqo/internal/algebra"
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
	ix := types.NewRowIndex(keyCols, true, len(rel.Tuples))
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
	i := 0
	for _, c := range chunks {
		for _, hk := range c {
			if hk.ok {
				ix.Add(rel.Tuples[i], hk.h)
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
type rowSlab struct {
	buf          []types.Value
	width, rows  int // row width; rows still to be cut
	maxChunkRows int
}

// slab returns a slab for n rows of the given width.
func (ex *Executor) slab(width, n int) rowSlab {
	return rowSlab{width: width, rows: n, maxChunkRows: ex.msize}
}

// next cuts the next row.
func (s *rowSlab) next() []types.Value {
	if s.buf == nil || len(s.buf) < s.width {
		s.buf = make([]types.Value, min(max(s.rows, 1), s.maxChunkRows)*s.width)
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

// pairFrames returns two stacked frames through which a predicate sees
// a pair l ◦ r without the row being built: the caller rebinds their
// tuples per pair (holds) and evaluates under rf.
func pairFrames(env *Env, ls, rs *storage.Schema) (lf, rf *Env) {
	lf = &Env{parent: env, schema: ls}
	return lf, &Env{parent: lf, schema: rs}
}

// holds reports whether pred is TRUE on the pair l ◦ r, which it sees
// through the frames of pairFrames; a nil pred holds on every pair.
func (ex *Executor) holds(pred algebra.Expr, lf, rf *Env, l, r []types.Value) (bool, error) {
	if pred == nil {
		return true, nil
	}
	lf.tuple, rf.tuple = l, r
	t, err := ex.EvalPred(pred, rf)
	return t.IsTrue(), err
}

// takePairs takes the executor's output record for a morsel of n left
// tuples, empty; the operator puts it back when the morsel's rows are
// written, so an operator nested under its predicates finds none and
// uses its own.
func (ex *Executor) takePairs(n int) [][2]int32 {
	pairs := ex.pairs[:0]
	ex.pairs = nil
	if cap(pairs) < n {
		pairs = make([][2]int32, 0, n)
	}
	return pairs
}

func (ex *Executor) evalHashJoin(j *physical.HashJoin, env *Env) (*storage.Relation, error) {
	return ex.evalJoin(j, j.L, j.R, env, j.Mode, j.LCols, j.RCols, j.Residual, nil, j.Emit, nil)
}

func (ex *Executor) evalNLJoin(j *physical.NLJoin, env *Env) (*storage.Relation, error) {
	return ex.evalJoin(j, j.L, j.R, env, j.Mode, nil, nil, j.Pred, nil, j.Emit, nil)
}

// evalOuterJoin evaluates ⟕ with the paper's g:f(∅) defaults: an
// unmatched left tuple is paired with j.Pad (NULLs except the Default
// attributes, precomputed by the planner).
func (ex *Executor) evalOuterJoin(j *physical.OuterJoin, env *Env) (*storage.Relation, error) {
	pred := j.Pred
	if j.Hash { // LCols and RCols are set; the keys are not checked again
		pred = j.Residual
	}
	return ex.evalJoin(j, j.L, j.R, env, physical.JoinInner, j.LCols, j.RCols, pred, j.Keep, j.Emit, j.Pad)
}

// Partners recorded by evalJoin beside a right index entry or position.
const (
	padPartner  = -1 // the outer join's pad
	passPartner = -2 // a semi or anti join passes the left tuple through
)

// evalJoin is every join, in morsels over the left input. The candidate
// partners of a left tuple are the right tuples equal on the key columns
// — probed from a hash index built on the right input — or, when lcols
// is nil, all of them (nested loops); a candidate matches when pred (the
// hash join's residual, the nested-loop join's whole predicate; nil for
// none) holds on the pair, which pred sees through two frames. An inner
// join emits each matching pair, and with pad — the outer join — the
// pair of pad and a left tuple that found none; semi and anti joins pass
// the left tuple through on (no) match and stop at the first one. keep,
// a selection fused into an outer join (nil for none), is evaluated on
// each pair the join would emit, pad pairs included, and drops those it
// does not hold TRUE on before any row is built. A morsel first records
// each output as a pair (the left tuple's offset, its partner), then
// cuts exactly that many rows from one slab. A cross product — nested
// loops without a predicate — is not counted as an NL join.
func (ex *Executor) evalJoin(n physical.Node, lop, rop physical.Node, env *Env, mode physical.JoinMode,
	lcols, rcols []int, pred, keep algebra.Expr, emit []int, pad []types.Value) (*storage.Relation, error) {
	l, err := ex.eval(lop, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(rop, env)
	if err != nil {
		return nil, err
	}
	var ht *types.RowIndex
	switch {
	case lcols != nil:
		ex.stats.HashJoins++
		if ht, err = ex.buildIndex(r, rcols); err != nil {
			return nil, err
		}
	case pred != nil || pad != nil:
		ex.stats.NLJoins++
	}
	if _, err := ex.vecEnter(n); err != nil {
		return nil, err
	}
	width := n.Schema().Len()
	var pending atomic.Int64 // operator-wide output size for the budget
	chunks, err := parMorsels(ex, len(l.Tuples),
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			pairs := w.takePairs(hi - lo)
			lf, rf := pairFrames(env, l.Schema, r.Schema)
			for i, lt := range l.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				if err := w.checkBudget(int(pending.Load())); err != nil {
					return nil, err
				}
				before, matched := len(pairs), false
				e, j := int32(-1), 0
				if ht != nil {
					e = ht.First(lt, lcols)
				}
				for !matched || mode == physical.JoinInner { // semi/anti need only existence
					var rt []types.Value
					var partner int32
					if ht != nil {
						if e < 0 {
							break
						}
						partner, rt, e = e, ht.Row(e), ht.Next(e, lt, lcols)
					} else {
						if j == len(r.Tuples) {
							break
						}
						partner, rt, j = int32(j), r.Tuples[j], j+1
					}
					if err := w.tick(); err != nil {
						return nil, err
					}
					ok, err := w.holds(pred, lf, rf, lt, rt)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
					matched = true
					if mode != physical.JoinInner {
						continue
					}
					if ok, err = w.holds(keep, lf, rf, lt, rt); err != nil {
						return nil, err
					}
					if ok {
						pairs = append(pairs, [2]int32{int32(i), partner})
					}
				}
				switch {
				case mode == physical.JoinSemi && matched, mode == physical.JoinAnti && !matched:
					pairs = append(pairs, [2]int32{int32(i), passPartner})
				case pad != nil && !matched:
					ok, err := w.holds(keep, lf, rf, lt, pad)
					if err != nil {
						return nil, err
					}
					if ok {
						pairs = append(pairs, [2]int32{int32(i), padPartner})
					}
				}
				pending.Add(int64(len(pairs) - before))
			}
			out := make([][]types.Value, len(pairs))
			var slab rowSlab
			if mode == physical.JoinInner {
				slab = w.slab(width, len(pairs))
			}
			for k, p := range pairs {
				lt := l.Tuples[lo+int(p[0])]
				switch {
				case p[1] == passPartner:
					out[k] = lt
				case p[1] == padPartner:
					out[k] = slab.emitRow(emit, lt, pad)
				case ht != nil:
					out[k] = slab.emitRow(emit, lt, ht.Row(p[1]))
				default:
					out[k] = slab.emitRow(emit, lt, r.Tuples[p[1]])
				}
			}
			w.pairs = pairs[:0]
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(n.Schema())
	out.Tuples = concatChunks(chunks)
	return out, nil
}
