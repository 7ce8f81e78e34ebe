// Package storage implements disqo's in-memory relations: ordered
// attribute schemas, bag-semantics tuple containers, and the base-table
// heap the executor scans. It is the substrate the paper's Natix engine
// provides; here everything lives in memory (DESIGN.md §4).
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"disqo/internal/types"
)

// Schema is an ordered list of attribute names. Attributes are qualified
// ("r.a1") after translation from SQL; intermediate operators introduce
// unqualified synthetic names ("g", "g1", "t#"). A(R) in the paper's
// notation is exactly this list.
type Schema struct {
	attrs []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. Duplicate names panic:
// the translator is responsible for disambiguating via renaming, and a
// duplicate slipping through would silently mis-resolve columns. The
// schema keeps attrs as its attribute list, as immutable as the schema:
// a caller passing a slice it has built does not change it afterwards.
func NewSchema(attrs ...string) *Schema {
	s := &Schema{attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range s.attrs {
		if _, dup := s.index[a]; dup {
			panic(fmt.Sprintf("storage: duplicate attribute %q in schema", a))
		}
		s.index[a] = i
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attrs returns the attribute names in order. The slice is shared; do not
// mutate.
func (s *Schema) Attrs() []string { return s.attrs }

// Attr returns the i-th attribute name.
func (s *Schema) Attr(i int) string { return s.attrs[i] }

// Index returns the position of attribute name, or -1 when absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the attribute.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Concat returns the schema of a tuple concatenation x ◦ y.
func (s *Schema) Concat(o *Schema) *Schema {
	attrs := make([]string, 0, len(s.attrs)+len(o.attrs))
	attrs = append(attrs, s.attrs...)
	attrs = append(attrs, o.attrs...)
	return NewSchema(attrs...)
}

// Extend returns the schema with one attribute appended (χ, Γ, ν results).
func (s *Schema) Extend(name string) *Schema {
	attrs := make([]string, 0, len(s.attrs)+1)
	attrs = append(attrs, s.attrs...)
	attrs = append(attrs, name)
	return NewSchema(attrs...)
}

// Rename returns a schema with old replaced by new (ρ new←old).
func (s *Schema) Rename(old, new string) (*Schema, error) {
	i := s.Index(old)
	if i < 0 {
		return nil, fmt.Errorf("storage: rename: no attribute %q", old)
	}
	attrs := append([]string(nil), s.attrs...)
	attrs[i] = new
	return NewSchema(attrs...), nil
}

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as [a, b, c].
func (s *Schema) String() string {
	return "[" + strings.Join(s.attrs, ", ") + "]"
}

// Projection resolves a list of attribute names into column positions,
// written to idx, which has room for them; it errors on any that are
// missing.
func (s *Schema) Projection(idx []int, names []string) error {
	for i, n := range names {
		p := s.Index(n)
		if p < 0 {
			return fmt.Errorf("storage: projection: no attribute %q in %s", n, s)
		}
		idx[i] = p
	}
	return nil
}

// Relation is a bag of tuples over a schema. Operators materialize their
// output as Relations; the DAG executor memoizes them per plan node.
type Relation struct {
	Schema *Schema
	Tuples [][]types.Value
	// batch is the columnar view of the tuples: made on first use
	// (Batch), or the table version's own for a scan's view of it
	// (Batch.View).
	batch atomic.Pointer[Batch]
	// Owned is what of the relation's storage its operator took from
	// the executor's pools, for the relation's one consumer to hand back:
	// nil for a table's rows, a result's, and any other relation whose
	// storage outlives that consumer. A pointer keeps the many
	// intermediate relations in their size class.
	Owned *Owned
}

// Owned is the pooled storage of an intermediate relation: the buffer of
// its tuple list (nil when it owns none) and the chunks its rows were
// cut from — by its own operator, or by an input's, whose rows its
// tuples are. The executor takes and hands them back (internal/exec,
// recycle.go); storage only carries them.
type Owned struct {
	List *[][]types.Value
	Rows []*[]types.Value
}

// Batch returns the relation's columnar view, made on first use: every
// operator, worker and re-evaluation reading the relation — a memoized
// input a canonical plan filters per outer tuple — reads the same column
// vectors. The tuples must not change once it is made; Append drops it.
func (r *Relation) Batch() *Batch {
	if b := r.batch.Load(); b != nil {
		return b
	}
	r.batch.CompareAndSwap(nil, NewBatch(r))
	return r.batch.Load()
}

// NewRelation returns an empty relation over the schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// Cardinality returns the number of tuples (bag count).
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// Append adds a tuple. The tuple length must match the schema; this is a
// programming error so it panics rather than returning an error.
func (r *Relation) Append(t []types.Value) {
	if len(t) != r.Schema.Len() {
		panic(fmt.Sprintf("storage: tuple arity %d vs schema %s", len(t), r.Schema))
	}
	r.Tuples = append(r.Tuples, t)
	r.batch.Store(nil)
}

// Clone returns a deep copy: both the tuple slice and every row are
// independent of the original, so mutating a cloned row can never alias
// tuples pinned elsewhere (the executor memo, a returned result set).
func (r *Relation) Clone() *Relation {
	tuples := make([][]types.Value, len(r.Tuples))
	for i, t := range r.Tuples {
		tuples[i] = append([]types.Value(nil), t...)
	}
	return &Relation{Schema: r.Schema, Tuples: tuples}
}

// Distinct returns a relation with duplicate tuples removed under
// Identical semantics (NULLs collate equal), preserving first-seen order:
// the index's entries, which are the first of each tuple in input order,
// cut once to their number — or, when there is no duplicate, r's own
// tuple slice, shared as a scan shares its table's: no operator writes
// into a relation's slice, and a sort permutes a copy of it. The index
// goes back to its pool once the rows are cut.
func (r *Relation) Distinct() *Relation {
	seen := types.NewRowIndex(r.Tuples, nil, false, len(r.Tuples))
	for i := range r.Tuples {
		seen.FindOrAdd(int32(i))
	}
	out := &Relation{Schema: r.Schema, Tuples: r.Tuples}
	if seen.Len() < len(r.Tuples) {
		out.Tuples = make([][]types.Value, seen.Len())
		for e := range out.Tuples {
			out.Tuples[e] = seen.Row(int32(e))
		}
	}
	seen.Release()
	return out
}

// SortBy sorts tuples in place by the given column positions and
// directions (true = descending). The sort is stable so ORDER BY ties
// keep input order.
func (r *Relation) SortBy(cols []int, desc []bool) {
	sort.SliceStable(r.Tuples, func(i, j int) bool {
		a, b := r.Tuples[i], r.Tuples[j]
		for k, c := range cols {
			cmp := types.OrderValues(a[c], b[c])
			if cmp == 0 {
				continue
			}
			if k < len(desc) && desc[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// Canonical returns the tuples rendered and sorted lexicographically —
// the comparison form used by result-equivalence tests where order is
// immaterial.
func (r *Relation) Canonical() []string {
	out := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = types.FormatTuple(t)
	}
	sort.Strings(out)
	return out
}

// String renders the relation for debugging: schema then tuples, one per
// line, in stored order.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	for _, t := range r.Tuples {
		b.WriteByte('\n')
		b.WriteString(types.FormatTuple(t))
	}
	return b.String()
}
