package exec

import (
	"disqo/internal/faultinject"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Path selects the execution substrate. The row path interprets plans
// tuple-at-a-time and is the engine's correctness oracle; the vector
// path runs eligible operators column-at-a-time over storage.Batch
// vectors with per-node fallback to the row interpreter. Both paths are
// byte-identical in output: vectorized operators emit selection vectors
// over the same row heap the interpreter walks, in the same order.
type Path uint8

const (
	// PathRow is tuple-at-a-time interpretation (the default zero
	// value, so embedded uses of the executor stay on the oracle).
	PathRow Path = iota
	// PathVector is batch-at-a-time vectorized evaluation for eligible
	// nodes (compiled predicates/scalars, bypass σ± forks, hash-join
	// probes, projections), row interpretation for the rest.
	PathVector
)

// String names the path the way flags and EXPLAIN spell it.
func (p Path) String() string {
	if p == PathVector {
		return "vector"
	}
	return "row"
}

// ParsePath parses a -path flag value.
func ParsePath(s string) (Path, bool) {
	switch s {
	case "row":
		return PathRow, true
	case "vector":
		return PathVector, true
	default:
		return PathRow, false
	}
}

func (ex *Executor) useVec() bool { return ex.opt.Path == PathVector }

// batchFor returns the shared columnar view of a relation, creating it
// on first use. Sharing by row-heap identity means canonical plans that
// re-run a predicate over one memoized input per outer tuple convert
// rows to columns once, not per binding.
func (ex *Executor) batchFor(rel *storage.Relation) *storage.Batch {
	ex.sh.mu.Lock()
	b := ex.sh.batches[rel]
	if b == nil {
		b = storage.NewBatch(rel)
		ex.sh.batches[rel] = b
	}
	ex.sh.mu.Unlock()
	return b
}

// creditVec marks one vectorized evaluation of node n. Credited by the
// coordinator of the kernel (once per Call), so the counter is
// worker-count independent like Calls.
func (ex *Executor) creditVec(n physical.Node) {
	if ex.nm != nil {
		ex.metric(n).VecCalls++
	}
}

// vecEnter is the common kernel prologue: the fault injector's vec site
// fires (latching the abort so cancellation semantics match SiteOp),
// the evaluation is credited, and the predicate's columns are
// materialized by the coordinator so morsel workers only take the
// wait-free column loads.
func (ex *Executor) vecEnter(n physical.Node, in *storage.Relation, cols []int) (*storage.Batch, error) {
	if ferr := ex.inject(faultinject.SiteVec, n); ferr != nil {
		return nil, ex.fail(ferr)
	}
	ex.creditVec(n)
	b := ex.batchFor(in)
	b.Materialize(cols)
	return b, nil
}

// gatherChunks assembles per-morsel selection vectors into a relation
// sharing the selected rows with the input (no copying).
func gatherChunks(in *storage.Relation, chunks [][]int32) *storage.Relation {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	out := storage.NewRelation(in.Schema)
	out.Tuples = make([][]types.Value, 0, n)
	for _, c := range chunks {
		for _, i := range c {
			out.Tuples = append(out.Tuples, in.Tuples[i])
		}
	}
	return out
}

// evalFilterVec is σ over a compiled predicate: one Pred.Eval per
// morsel produces the morsel's truth vector, TRUE rows become the
// selection vector, and the output gathers the selected row pointers in
// input order — exactly the rows and order the interpreter keeps.
func (ex *Executor) evalFilterVec(f *physical.Filter, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(f.Child, env)
	if err != nil {
		return nil, err
	}
	b, err := ex.vecEnter(f, in, f.VecPred.Cols())
	if err != nil {
		return nil, err
	}
	chunks, err := parMorsels(ex, len(in.Tuples), false,
		func(w *Executor, lo, hi int) ([]int32, error) {
			res, cmps, err := f.VecPred.EvalMode(b, lo, hi, w.opt.Nulls)
			w.stats.Comparisons += cmps
			if err != nil {
				return nil, err
			}
			var keep []int32
			for i, t := range res {
				if t.IsTrue() {
					keep = append(keep, int32(lo+i))
				}
			}
			return keep, nil
		})
	if err != nil {
		return nil, err
	}
	return gatherChunks(in, chunks), nil
}

// evalBypassFilterVec is the vectorized σ±: one predicate pass forks
// the batch into positive (TRUE) and negative (not-TRUE) selection
// vectors; both outputs share the input's rows, so the fork copies
// nothing and matches the row-path partition byte for byte.
func (ex *Executor) evalBypassFilterVec(s *physical.BypassFilter, env *Env) (pos, neg *storage.Relation, err error) {
	in, err := ex.eval(s.Child, env)
	if err != nil {
		return nil, nil, err
	}
	b, err := ex.vecEnter(s, in, s.VecPred.Cols())
	if err != nil {
		return nil, nil, err
	}
	type split struct {
		pos, neg []int32
	}
	chunks, err := parMorsels(ex, len(in.Tuples), false,
		func(w *Executor, lo, hi int) (split, error) {
			res, cmps, err := s.VecPred.EvalMode(b, lo, hi, w.opt.Nulls)
			w.stats.Comparisons += cmps
			if err != nil {
				return split{}, err
			}
			var out split
			for i, t := range res {
				if t.IsTrue() {
					out.pos = append(out.pos, int32(lo+i))
				} else {
					out.neg = append(out.neg, int32(lo+i))
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, nil, err
	}
	posSel := make([][]int32, len(chunks))
	negSel := make([][]int32, len(chunks))
	for i, c := range chunks {
		posSel[i] = c.pos
		negSel[i] = c.neg
	}
	return gatherChunks(in, posSel), gatherChunks(in, negSel), nil
}

// evalProjectVec rebuilds output rows from column vectors; positional
// projection is always eligible.
func (ex *Executor) evalProjectVec(p *physical.Project, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(p.Child, env)
	if err != nil {
		return nil, err
	}
	b, err := ex.vecEnter(p, in, p.Cols)
	if err != nil {
		return nil, err
	}
	chunks, err := parMorsels(ex, len(in.Tuples), false,
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			cvs := make([]*storage.ColVec, len(p.Cols))
			for j, c := range p.Cols {
				cvs[j] = b.Col(c)
			}
			out := make([][]types.Value, 0, hi-lo)
			for i := lo; i < hi; i++ {
				row := make([]types.Value, len(p.Cols))
				for j, cv := range cvs {
					row[j] = cv.Value(i)
				}
				out = append(out, row)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(p.Schema())
	out.Tuples = concatChunks(chunks)
	return out, nil
}

// evalMapVec extends each row with a compiled scalar evaluated
// column-at-a-time.
func (ex *Executor) evalMapVec(m *physical.Map, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(m.Child, env)
	if err != nil {
		return nil, err
	}
	b, err := ex.vecEnter(m, in, m.VecExpr.Cols())
	if err != nil {
		return nil, err
	}
	chunks, err := parMorsels(ex, len(in.Tuples), false,
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			vals, cmps, err := m.VecExpr.EvalMode(b, lo, hi, w.opt.Nulls)
			w.stats.Comparisons += cmps
			if err != nil {
				return nil, err
			}
			out := make([][]types.Value, 0, hi-lo)
			for i := lo; i < hi; i++ {
				t := in.Tuples[i]
				row := make([]types.Value, 0, len(t)+1)
				row = append(row, t...)
				row = append(row, vals[i-lo])
				out = append(out, row)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(m.Schema())
	out.Tuples = concatChunks(chunks)
	return out, nil
}

// probeKeys reads a morsel's probe keys straight from the column
// vectors into a reused buffer — the vectorized replacement for the
// per-row keyOf allocation of the interpreted probe loop.
type probeKeys struct {
	cvs []*storage.ColVec
	key []types.Value
}

func newProbeKeys(b *storage.Batch, cols []int) *probeKeys {
	pk := &probeKeys{cvs: make([]*storage.ColVec, len(cols)), key: make([]types.Value, len(cols))}
	for j, c := range cols {
		pk.cvs[j] = b.Col(c)
	}
	return pk
}

// at fills the key buffer for row i; ok is false when any key column is
// NULL (SQL equality can never match it).
func (pk *probeKeys) at(i int) (key []types.Value, ok bool) {
	for j, cv := range pk.cvs {
		v := cv.Value(i)
		if v.IsNull() {
			return nil, false
		}
		pk.key[j] = v
	}
	return pk.key, true
}

// evalHashJoinVec vectorizes the probe side of an equi-join without
// residual: build is unchanged (shared with the row path), probing
// reads keys from the left batch's columns. Match order — left tuples
// in input order, bucket candidates in ascending build order — is the
// interpreter's, so output bytes are identical.
func (ex *Executor) evalHashJoinVec(j *physical.HashJoin, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(j.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(j.R, env)
	if err != nil {
		return nil, err
	}
	ex.stats.HashJoins++
	ht, err := ex.buildHashTable(r, j.RCols)
	if err != nil {
		return nil, err
	}
	b, err := ex.vecEnter(j, l, j.LCols)
	if err != nil {
		return nil, err
	}
	emitPairs := j.Mode == physical.JoinInner
	chunks, err := parMorsels(ex, len(l.Tuples), false,
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			pk := newProbeKeys(b, j.LCols)
			var out [][]types.Value
			for i := lo; i < hi; i++ {
				if err := w.tick(); err != nil {
					return nil, err
				}
				lt := l.Tuples[i]
				matched := false
				if key, ok := pk.at(i); ok {
					for _, ri := range ht.buckets[types.HashTuple(key)] {
						rt := r.Tuples[ri]
						if !keysMatch(lt, j.LCols, rt, j.RCols) {
							continue // hash collision
						}
						matched = true
						if emitPairs {
							out = append(out, concat(lt, rt))
						} else {
							break
						}
					}
				}
				switch j.Mode {
				case physical.JoinSemi:
					if matched {
						out = append(out, lt)
					}
				case physical.JoinAnti:
					if !matched {
						out = append(out, lt)
					}
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(j.Schema())
	out.Tuples = concatChunks(chunks)
	return out, nil
}
