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
	chunks, err := parMorsels(ex, len(rel.Tuples), false,
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

// emitRow writes an operator's output row from the pair l ◦ r: every
// column when emit is nil, else the listed positions of it. It is the
// one place a joined, mapped or binary-grouped row is built, and builds
// it once, at its final width.
func emitRow(emit []int, l, r []types.Value) []types.Value {
	if emit == nil {
		row := make([]types.Value, len(l)+len(r))
		copy(row[copy(row, l):], r)
		return row
	}
	row := make([]types.Value, len(emit))
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
// tuples per pair and evaluates under rf.
func pairFrames(env *Env, ls, rs *storage.Schema) (lf, rf *Env) {
	lf = &Env{parent: env, schema: ls}
	return lf, &Env{parent: lf, schema: rs}
}

func (ex *Executor) evalHashJoin(j *physical.HashJoin, env *Env) (*storage.Relation, error) {
	return ex.evalJoin(j, j.L, j.R, env, j.Mode, j.LCols, j.RCols, j.Residual, j.Emit, nil)
}

func (ex *Executor) evalNLJoin(j *physical.NLJoin, env *Env) (*storage.Relation, error) {
	return ex.evalJoin(j, j.L, j.R, env, j.Mode, nil, nil, j.Pred, j.Emit, nil)
}

// evalOuterJoin evaluates ⟕ with the paper's g:f(∅) defaults: an
// unmatched left tuple is paired with j.Pad (NULLs except the Default
// attributes, precomputed by the planner).
func (ex *Executor) evalOuterJoin(j *physical.OuterJoin, env *Env) (*storage.Relation, error) {
	pred := j.Pred
	if j.Hash { // LCols and RCols are set; the keys are not checked again
		pred = j.Residual
	}
	return ex.evalJoin(j, j.L, j.R, env, physical.JoinInner, j.LCols, j.RCols, pred, j.Emit, j.Pad)
}

// evalJoin is every join, in morsels over the left input. The candidate
// partners of a left tuple are the right tuples equal on the key columns
// — probed from a hash index built on the right input — or, when lcols
// is nil, all of them (nested loops); a candidate matches when pred (the
// hash join's residual, the nested-loop join's whole predicate; nil for
// none) holds on the pair, which pred sees through two frames. An inner
// join emits each matching pair, and with pad — the outer join — the
// pair of pad and a left tuple that found none; semi and anti joins pass
// the left tuple through on (no) match and stop at the first one. A
// cross product — nested loops without a predicate — is not counted as
// an NL join.
func (ex *Executor) evalJoin(n physical.Node, lop, rop physical.Node, env *Env, mode physical.JoinMode,
	lcols, rcols []int, pred algebra.Expr, emit []int, pad []types.Value) (*storage.Relation, error) {
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
	var pending atomic.Int64 // operator-wide output size for the budget
	chunks, err := parMorsels(ex, len(l.Tuples), false,
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			var out [][]types.Value
			if pad != nil { // at least a row per left tuple
				out = make([][]types.Value, 0, hi-lo)
			}
			lf, rf := pairFrames(env, l.Schema, r.Schema)
			for _, lt := range l.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				if err := w.checkBudget(int(pending.Load())); err != nil {
					return nil, err
				}
				lf.tuple = lt
				before, matched := len(out), false
				e, i := int32(-1), 0
				if ht != nil {
					e = ht.First(lt, lcols)
				}
				for !matched || mode == physical.JoinInner { // semi/anti need only existence
					var rt []types.Value
					if ht != nil {
						if e < 0 {
							break
						}
						rt, e = ht.Row(e), ht.Next(e, lt, lcols)
					} else {
						if i == len(r.Tuples) {
							break
						}
						rt, i = r.Tuples[i], i+1
					}
					if err := w.tick(); err != nil {
						return nil, err
					}
					if pred != nil {
						rf.tuple = rt
						ok, err := w.EvalPred(pred, rf)
						if err != nil {
							return nil, err
						}
						if !ok.IsTrue() {
							continue
						}
					}
					matched = true
					if mode == physical.JoinInner {
						out = append(out, emitRow(emit, lt, rt))
					}
				}
				switch {
				case mode == physical.JoinSemi && matched, mode == physical.JoinAnti && !matched:
					out = append(out, lt)
				case pad != nil && !matched:
					out = append(out, emitRow(emit, lt, pad))
				}
				pending.Add(int64(len(out) - before))
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(n.Schema())
	out.Tuples = concatChunks(chunks)
	return out, nil
}
