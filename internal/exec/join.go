package exec

import (
	"sync/atomic"

	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// hashTable buckets build-side tuple indices by key hash. Tuples with any
// NULL key column are omitted: SQL equality can never match them.
type hashTable struct {
	buckets map[uint64][]int
	rows    [][]types.Value
	keyCols []int
}

// buildHashTable hashes the build side. Key hashing is spread over
// morsels; bucket insertion stays sequential in index order so each
// bucket lists candidates in ascending tuple order regardless of the
// worker count (probe output order depends on it).
func (ex *Executor) buildHashTable(rel *storage.Relation, keyCols []int) (*hashTable, error) {
	ex.creditHashBuild(len(rel.Tuples))
	type hashed struct {
		h  uint64
		ok bool
	}
	chunks, err := parMorsels(ex, len(rel.Tuples), false,
		func(w *Executor, lo, hi int) ([]hashed, error) {
			out := make([]hashed, 0, hi-lo)
			for _, t := range rel.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				hk := hashed{ok: true}
				key := make([]types.Value, len(keyCols))
				for j, c := range keyCols {
					if t[c].IsNull() {
						hk.ok = false
						break
					}
					key[j] = t[c]
				}
				if hk.ok {
					hk.h = types.HashTuple(key)
				}
				out = append(out, hk)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	ht := &hashTable{buckets: make(map[uint64][]int, len(rel.Tuples)), rows: rel.Tuples, keyCols: keyCols}
	i := 0
	for _, c := range chunks {
		for _, hk := range c {
			if hk.ok {
				ht.buckets[hk.h] = append(ht.buckets[hk.h], i)
			}
			i++
		}
	}
	return ht, nil
}

// prober is the hash probe, written once: key → bucket → verified
// match. One prober serves one morsel worker and reuses its key buffer
// across left tuples, so probing allocates per morsel, not per row.
type prober struct {
	ht    *hashTable
	lcols []int
	key   []types.Value
	lt    []types.Value
	cands []int
}

// prober returns nil for a nil table: the nested-loop variants of the
// operators that share a body with their hash variant never probe.
func (ht *hashTable) prober(lcols []int) *prober {
	if ht == nil {
		return nil
	}
	return &prober{ht: ht, lcols: lcols, key: make([]types.Value, len(lcols))}
}

// first returns the first build-side tuple whose key columns equal
// lt's and next each later one, in ascending build order — which is
// what fixes the probe's output order — or nil when none is left. A
// NULL in lt's key matches nothing.
func (p *prober) first(lt []types.Value) []types.Value {
	p.lt, p.cands = lt, nil
	for i, c := range p.lcols {
		if lt[c].IsNull() {
			return nil
		}
		p.key[i] = lt[c]
	}
	p.cands = p.ht.buckets[types.HashTuple(p.key)]
	return p.next()
}

func (p *prober) next() []types.Value {
	for len(p.cands) > 0 {
		rt := p.ht.rows[p.cands[0]]
		p.cands = p.cands[1:]
		if keysMatch(p.lt, p.lcols, rt, p.ht.keyCols) { // else a hash collision
			return rt
		}
	}
	return nil
}

func keyOf(t []types.Value, cols []int) []types.Value {
	key := make([]types.Value, len(cols))
	for i, c := range cols {
		key[i] = t[c]
	}
	return key
}

func keysMatch(lt []types.Value, lcols []int, rt []types.Value, rcols []int) bool {
	for i := range lcols {
		if !types.Equal(lt[lcols[i]], rt[rcols[i]]) {
			return false
		}
	}
	return true
}

// evalHashJoin probes a hash table built on the right input, in morsels
// over the left. Semi/anti modes emit the left tuple on (no) match and
// stop probing at the first qualifying pair.
func (ex *Executor) evalHashJoin(j *physical.HashJoin, env *Env) (*storage.Relation, error) {
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
	if _, err := ex.vecEnter(j); err != nil {
		return nil, err
	}
	var joined *storage.Schema // what the residual is evaluated against
	if j.Residual != nil {
		joined = l.Schema.Concat(r.Schema)
	}
	emitPairs := j.Mode == physical.JoinInner
	chunks, err := parMorsels(ex, len(l.Tuples), false,
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			p := ht.prober(j.LCols)
			var out [][]types.Value
			for _, lt := range l.Tuples[lo:hi] {
				if err := w.tick(); err != nil {
					return nil, err
				}
				matched := false
				for rt := p.first(lt); rt != nil; rt = p.next() {
					var row []types.Value
					if emitPairs || j.Residual != nil {
						row = concat(lt, rt)
					}
					if j.Residual != nil {
						ok, err := w.EvalPred(j.Residual, Bind(env, joined, row))
						if err != nil {
							return nil, err
						}
						if !ok.IsTrue() {
							continue
						}
					}
					matched = true
					if !emitPairs {
						break
					}
					out = append(out, row)
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

// evalNLJoin enumerates all pairs, in morsels over the left input. A
// nil predicate is a cross product (inner mode only) and — matching the
// bookkeeping of the logical executor — is not counted as an NL join.
func (ex *Executor) evalNLJoin(j *physical.NLJoin, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(j.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(j.R, env)
	if err != nil {
		return nil, err
	}
	if j.Pred != nil {
		ex.stats.NLJoins++
	}
	joined := l.Schema.Concat(r.Schema)
	emitPairs := j.Mode == physical.JoinInner
	var pending atomic.Int64 // operator-wide output size for the budget
	chunks, err := parMorsels(ex, len(l.Tuples), false,
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			var out [][]types.Value
			for _, lt := range l.Tuples[lo:hi] {
				if err := w.checkBudget(int(pending.Load())); err != nil {
					return nil, err
				}
				matched := false
				for _, rt := range r.Tuples {
					if err := w.tick(); err != nil {
						return nil, err
					}
					row := concat(lt, rt)
					ok := types.True
					if j.Pred != nil {
						var err error
						ok, err = w.EvalPred(j.Pred, Bind(env, joined, row))
						if err != nil {
							return nil, err
						}
					}
					if !ok.IsTrue() {
						continue
					}
					matched = true
					if emitPairs {
						out = append(out, row)
						pending.Add(1)
					} else {
						break // semi/anti need only existence
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

// evalOuterJoin evaluates ⟕ with the paper's g:f(∅) defaults: unmatched
// left tuples are padded with j.Pad (NULLs except the Default
// attributes, precomputed by the planner).
func (ex *Executor) evalOuterJoin(j *physical.OuterJoin, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(j.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(j.R, env)
	if err != nil {
		return nil, err
	}
	joined := j.Schema()

	var ht *hashTable
	if j.Hash {
		ex.stats.HashJoins++
		if ht, err = ex.buildHashTable(r, j.RCols); err != nil {
			return nil, err
		}
	} else {
		ex.stats.NLJoins++
	}
	var pending atomic.Int64
	chunks, err := parMorsels(ex, len(l.Tuples), false,
		func(w *Executor, lo, hi int) ([][]types.Value, error) {
			var out [][]types.Value
			p := ht.prober(j.LCols)
			for _, lt := range l.Tuples[lo:hi] {
				matched := false
				if j.Hash {
					if err := w.tick(); err != nil {
						return nil, err
					}
					for rt := p.first(lt); rt != nil; rt = p.next() {
						row := concat(lt, rt)
						if j.Residual != nil {
							ok, err := w.EvalPred(j.Residual, Bind(env, joined, row))
							if err != nil {
								return nil, err
							}
							if !ok.IsTrue() {
								continue
							}
						}
						matched = true
						out = append(out, row)
					}
				} else {
					if err := w.checkBudget(int(pending.Load())); err != nil {
						return nil, err
					}
					for _, rt := range r.Tuples {
						if err := w.tick(); err != nil {
							return nil, err
						}
						row := concat(lt, rt)
						ok := types.True
						if j.Pred != nil {
							var err error
							ok, err = w.EvalPred(j.Pred, Bind(env, joined, row))
							if err != nil {
								return nil, err
							}
						}
						if ok.IsTrue() {
							matched = true
							out = append(out, row)
							pending.Add(1)
						}
					}
				}
				if !matched {
					out = append(out, concat(lt, j.Pad))
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(joined)
	out.Tuples = concatChunks(chunks)
	return out, nil
}
