package storage

import (
	"slices"

	"disqo/internal/types"
)

// A table version's rows and columns are carried to the version a write
// makes of it (DESIGN.md §7): an INSERT extends them, a DELETE that keeps
// one run of rows shares that run, an UPDATE shares every column it does
// not set. Every slice a version publishes has cap == len, so whoever
// appends to one copies; the room past it is reachable only through the
// Span that placed it, and only the catalog's serialized commits grow
// into it.

// room is a buffer allocated with space past its end. buf's length is
// where the furthest slice any version published from it ends: the part
// past that is claimed by no version, and only a slice ending exactly
// there may grow into it.
type room[T any] struct{ buf []T }

// Span places a published slice in the buffer it was cut from, so that
// the next version can grow it in place. The zero Span places nothing:
// its slice is a caller's, or was built to its exact length, and growing
// it copies.
type Span[T any] struct {
	r   *room[T]
	off int
}

// Extend returns cur, which s places, followed by k slots for the caller
// to fill before it publishes the result, and the span placing the
// result; cur is left as it was and the result has cap == len. It grows
// in place when cur ends where the buffer's claimed part does and the
// room holds k more: no published slice covers the slots, so a reader of
// cur or of any older slice sees nothing change. Otherwise it copies cur
// into a new buffer with append's headroom past the k slots, or with
// none when cur is empty, so a bulk insert into an empty table carries no
// slack. Extends of one buffer must not run concurrently.
func (s Span[T]) Extend(cur []T, k int) ([]T, Span[T]) {
	n := len(cur)
	switch {
	case s.r != nil && s.off+n == len(s.r.buf) && cap(s.r.buf)-len(s.r.buf) >= k:
		s.r.buf = s.r.buf[:len(s.r.buf)+k]
	case n == 0:
		s = Span[T]{r: &room[T]{buf: make([]T, k)}}
	default:
		s = Span[T]{r: &room[T]{buf: append(cur[:n:n], make([]T, k)...)}}
	}
	end := len(s.r.buf)
	return s.r.buf[s.off:end:end], s
}

// From returns the span placing cur[lo:], where s places cur.
func (s Span[T]) From(lo int) Span[T] {
	if s.r == nil {
		return s
	}
	return Span[T]{r: s.r, off: s.off + lo}
}

// colSpan places each slice a carried column uses.
type colSpan struct {
	ints   Span[int64]
	floats Span[float64]
	strs   Span[string]
	bools  Span[bool]
	mixed  Span[types.Value]
	nulls  Span[bool]
}

func (s colSpan) from(lo int) colSpan {
	return colSpan{s.ints.From(lo), s.floats.From(lo), s.strs.From(lo), s.bools.From(lo), s.mixed.From(lo), s.nulls.From(lo)}
}

// Len is the number of entries in the column.
func (c *ColVec) Len() int {
	switch {
	case c.Mixed != nil:
		return len(c.Mixed)
	case c.Ints != nil:
		return len(c.Ints)
	case c.Floats != nil:
		return len(c.Floats)
	case c.Strs != nil:
		return len(c.Strs)
	case c.Bools != nil:
		return len(c.Bools)
	}
	return len(c.Nulls)
}

// takes reports whether v can follow the column's entries in the
// representation buildColVec would give it: any value for a mixed
// column, a NULL only where a null bitmap exists, otherwise a value of
// the column's kind. A value it does not take leaves the next version's
// column to be built from its rows.
func (c *ColVec) takes(v types.Value) bool {
	switch {
	case c.Mixed != nil:
		return true
	case v.IsNull():
		return c.Nulls != nil
	}
	return v.Kind() == c.Kind
}

// extended returns the column followed by column idx of added, every
// value of which it takes, in the buffers sp places it in; sp is updated
// to place the result. A NULL's payload is zero, as buildColVec leaves it.
func (c *ColVec) extended(sp *colSpan, added [][]types.Value, idx int) *ColVec {
	out := &ColVec{Kind: c.Kind}
	if c.Nulls != nil {
		out.Nulls = grow(&sp.nulls, c.Nulls, added, idx, types.Value.IsNull)
	}
	switch {
	case c.Mixed != nil:
		out.Mixed = grow(&sp.mixed, c.Mixed, added, idx, func(v types.Value) types.Value { return v })
	case c.Kind == types.KindInt:
		out.Ints = grow(&sp.ints, c.Ints, added, idx, func(v types.Value) int64 { x, _ := v.IntOk(); return x })
	case c.Kind == types.KindFloat:
		out.Floats = grow(&sp.floats, c.Floats, added, idx, func(v types.Value) float64 { x, _ := v.FloatOk(); return x })
	case c.Kind == types.KindString:
		out.Strs = grow(&sp.strs, c.Strs, added, idx, func(v types.Value) string { x, _ := v.StrOk(); return x })
	case c.Kind == types.KindBool:
		out.Bools = grow(&sp.bools, c.Bools, added, idx, func(v types.Value) bool { x, _ := v.BoolOk(); return x })
	}
	return out
}

// grow extends cur, which sp places, by entry(row[idx]) for each row of
// added, and moves sp to the result.
func grow[T any](sp *Span[T], cur []T, added [][]types.Value, idx int, entry func(types.Value) T) []T {
	out, next := sp.Extend(cur, len(added))
	for j, row := range added {
		out[len(cur)+j] = entry(row[idx])
	}
	*sp = next
	return out
}

// window returns entries lo … hi-1 of the column as the column
// buildColVec would build from them, sharing the payloads, or nil when
// that column has another representation: a mixed window may be of one
// kind, a window of a column with NULLs may hold none (no bitmap) or
// only NULLs (no kind).
func (c *ColVec) window(lo, hi int) *ColVec {
	if c.Mixed != nil {
		return nil
	}
	if c.Nulls != nil && c.Kind != types.KindNull {
		nulls := 0
		for _, null := range c.Nulls[lo:hi] {
			if null {
				nulls++
			}
		}
		if nulls == 0 || nulls == hi-lo {
			return nil
		}
	}
	out := &ColVec{Kind: c.Kind}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[lo:hi:hi]
	}
	switch c.Kind {
	case types.KindInt:
		out.Ints = c.Ints[lo:hi:hi]
	case types.KindFloat:
		out.Floats = c.Floats[lo:hi:hi]
	case types.KindString:
		out.Strs = c.Strs[lo:hi:hi]
	case types.KindBool:
		out.Bools = c.Bools[lo:hi:hi]
	}
	return out
}

// carried returns an empty batch of rel whose columns the caller seeds.
func carried(rel *Relation) *Batch {
	b := NewBatch(rel)
	spans := make([]colSpan, len(b.cols))
	b.spans = &spans
	return b
}

// span places column i, which a write carried into b, or nothing.
func (b *Batch) span(i int) colSpan {
	if b.spans == nil {
		return colSpan{}
	}
	return (*b.spans)[i]
}

// Extended returns the batch of rel, whose rows are b's followed by
// added. Every column b has built is carried into it, extended in place
// or copied once with headroom (Span.Extend), unless a value of added
// does not fit the column's representation; such a column, like one b
// has not built, is built from rel's rows on first use. Only the catalog's
// serialized commits call it.
func (b *Batch) Extended(rel *Relation, added [][]types.Value) *Batch {
	out := carried(rel)
cols:
	for i := range b.cols {
		c := b.cols[i].Load()
		if c == nil {
			continue
		}
		for _, row := range added {
			if !c.takes(row[i]) {
				continue cols
			}
		}
		sp := b.span(i)
		out.cols[i].Store(c.extended(&sp, added, i))
		(*out.spans)[i] = sp
	}
	return out
}

// Window returns the batch of rel, whose rows are b's rows lo … hi-1
// (hi-lo of them), sharing every built column's entries where the
// window keeps the column's representation (ColVec.window).
func (b *Batch) Window(rel *Relation, lo int) *Batch {
	hi := lo + len(rel.Tuples)
	out := carried(rel)
	for i := range b.cols {
		if c := b.cols[i].Load(); c != nil {
			if w := c.window(lo, hi); w != nil {
				out.cols[i].Store(w)
				(*out.spans)[i] = b.span(i).from(lo)
			}
		}
	}
	return out
}

// Sharing returns the batch of rel, whose rows hold b's values in every
// column but those changed lists, sharing each such column b has built.
func (b *Batch) Sharing(rel *Relation, changed []int) *Batch {
	out := carried(rel)
	for i := range b.cols {
		if c := b.cols[i].Load(); c != nil && !slices.Contains(changed, i) {
			out.cols[i].Store(c)
			(*out.spans)[i] = b.span(i)
		}
	}
	return out
}
