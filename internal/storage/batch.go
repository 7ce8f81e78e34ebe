package storage

import (
	"sync"
	"sync/atomic"

	"disqo/internal/types"
)

// Batch is the columnar view of a Relation: per-attribute typed vectors
// built lazily, column by column, over the same tuples the row heap
// holds. A Batch never copies or mutates rows — vectorized operators
// read columns here and emit results as selection vectors (row indices
// into the underlying relation), so converting back to the row
// representation is a pointer gather (exec's gatherChunks) and the two
// execution paths share row identity byte for byte.
//
// Column construction is idempotent and safe for concurrent use: the
// first caller to touch a column builds its vector under a mutex and
// publishes it through an atomic pointer; later callers (morsel workers,
// canonical per-outer-tuple re-evaluations) load it wait-free.
type Batch struct {
	rel  *Relation
	mu   sync.Mutex
	cols []atomic.Pointer[ColVec]
}

// NewBatch wraps a relation in its columnar view without materializing
// any column yet.
func NewBatch(rel *Relation) *Batch {
	return &Batch{rel: rel, cols: make([]atomic.Pointer[ColVec], rel.Schema.Len())}
}

// Relation returns the row heap the batch is a view of.
func (b *Batch) Relation() *Relation { return b.rel }

// Len is the number of rows in the batch.
func (b *Batch) Len() int { return len(b.rel.Tuples) }

// Col returns column i's vector, building it on first use.
func (b *Batch) Col(i int) *ColVec {
	if c := b.cols[i].Load(); c != nil {
		return c
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.cols[i].Load(); c != nil {
		return c
	}
	c := buildColVec(b.rel, i)
	b.cols[i].Store(c)
	return c
}

// Materialize builds the given columns eagerly — called once by the
// coordinator before fanning morsel workers out, so workers only take
// the wait-free load path.
func (b *Batch) Materialize(cols []int) {
	for _, i := range cols {
		b.Col(i)
	}
}

// Rows reconstructs a row relation from the columnar vectors alone —
// the batch→row boundary conversion. It is used by tests to prove the
// round trip is lossless; the executor itself never needs it because
// batches keep the originating rows alive.
func (b *Batch) Rows() *Relation {
	out := NewRelation(b.rel.Schema)
	n, w := b.Len(), b.rel.Schema.Len()
	out.Tuples = make([][]types.Value, n)
	for i := 0; i < n; i++ {
		row := make([]types.Value, w)
		for c := 0; c < w; c++ {
			row[c] = b.Col(c).Value(i)
		}
		out.Tuples[i] = row
	}
	return out
}

// ColVec is one attribute's values in columnar form. When every non-NULL
// entry shares a kind the payloads live in a typed slice (plus a
// null bitmap when NULLs occur); columns mixing kinds fall back to a
// boxed Value slice. Vectors are immutable once built.
type ColVec struct {
	// Kind is the uniform kind of the non-NULL entries; KindNull for an
	// all-NULL column. Meaningless when Mixed is set.
	Kind types.Kind
	// Exactly one typed slice is non-nil for a uniform column.
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	// Nulls marks NULL positions; nil when the column has none.
	Nulls []bool
	// Mixed is the boxed fallback for columns whose non-NULL entries
	// span more than one kind; all typed slices are nil then.
	Mixed []types.Value
}

// Value boxes entry i back into the row representation.
func (c *ColVec) Value(i int) types.Value {
	if c.Mixed != nil {
		return c.Mixed[i]
	}
	if c.Nulls != nil && c.Nulls[i] {
		return types.Null()
	}
	switch c.Kind {
	case types.KindInt:
		return types.NewInt(c.Ints[i])
	case types.KindFloat:
		return types.NewFloat(c.Floats[i])
	case types.KindString:
		return types.NewString(c.Strs[i])
	case types.KindBool:
		return types.NewBool(c.Bools[i])
	default:
		return types.Null()
	}
}

// buildColVec scans column idx once. It keeps the typed representation
// as long as all non-NULL entries agree on a kind and degrades to the
// boxed form the moment they do not.
func buildColVec(rel *Relation, idx int) *ColVec {
	n := len(rel.Tuples)
	cv := &ColVec{Kind: types.KindNull}
	for i := 0; i < n; i++ {
		v := rel.Tuples[i][idx]
		if v.IsNull() {
			if cv.Nulls == nil {
				cv.Nulls = make([]bool, n)
			}
			cv.Nulls[i] = true
			cv.appendZero()
			continue
		}
		if cv.Kind == types.KindNull {
			cv.retype(v.Kind(), n, i)
		} else if v.Kind() != cv.Kind {
			return buildMixed(rel, idx)
		}
		switch cv.Kind {
		case types.KindInt:
			iv, _ := v.IntOk()
			cv.Ints = append(cv.Ints, iv)
		case types.KindFloat:
			fv, _ := v.FloatOk()
			cv.Floats = append(cv.Floats, fv)
		case types.KindString:
			sv, _ := v.StrOk()
			cv.Strs = append(cv.Strs, sv)
		case types.KindBool:
			bv, _ := v.BoolOk()
			cv.Bools = append(cv.Bools, bv)
		}
	}
	return cv
}

// retype switches an all-NULL-so-far column to kind k, backfilling the
// i zero slots already consumed.
func (c *ColVec) retype(k types.Kind, cap, i int) {
	c.Kind = k
	switch k {
	case types.KindInt:
		c.Ints = make([]int64, i, cap)
	case types.KindFloat:
		c.Floats = make([]float64, i, cap)
	case types.KindString:
		c.Strs = make([]string, i, cap)
	case types.KindBool:
		c.Bools = make([]bool, i, cap)
	}
}

// appendZero keeps the typed slice index-aligned across a NULL slot.
func (c *ColVec) appendZero() {
	switch c.Kind {
	case types.KindInt:
		c.Ints = append(c.Ints, 0)
	case types.KindFloat:
		c.Floats = append(c.Floats, 0)
	case types.KindString:
		c.Strs = append(c.Strs, "")
	case types.KindBool:
		c.Bools = append(c.Bools, false)
	}
}

func buildMixed(rel *Relation, idx int) *ColVec {
	n := len(rel.Tuples)
	cv := &ColVec{Mixed: make([]types.Value, n)}
	for i := 0; i < n; i++ {
		cv.Mixed[i] = rel.Tuples[i][idx]
	}
	return cv
}
