// Package agg implements SQL aggregate functions — COUNT, SUM, AVG, MIN,
// MAX, each with an optional DISTINCT modifier — as accumulators that
// fold their inputs in order and can overlay a shared base (Eqv. 5's
// fold of the tuples every group holds). Every aggregate, DISTINCT
// included, goes through the same operations, so no rule needs the
// paper's decomposability split f(X) = fO(fI(Y), fI(Z)).
package agg

import (
	"fmt"

	"disqo/internal/types"
)

// Kind enumerates the aggregate functions.
type Kind uint8

const (
	// Count is COUNT(expr) / COUNT(*) (with Spec.Star).
	Count Kind = iota
	// Sum is SUM(expr).
	Sum
	// Avg is AVG(expr).
	Avg
	// Min is MIN(expr).
	Min
	// Max is MAX(expr).
	Max
)

// String renders the SQL function name.
func (k Kind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AGG(%d)", uint8(k))
	}
}

// Spec describes one aggregate call site: the function, whether the
// argument is DISTINCT, and whether the argument is * (the whole tuple).
type Spec struct {
	Kind     Kind
	Distinct bool
	Star     bool
}

// String renders e.g. "COUNT(DISTINCT *)".
func (s Spec) String() string {
	mod, arg := "", "."
	if s.Distinct {
		mod = "DISTINCT "
	}
	if s.Star {
		arg = "*"
	}
	return s.Kind.String() + "(" + mod + arg + ")"
}

// Validate rejects spec combinations SQL forbids.
func (s Spec) Validate() error {
	if s.Star && s.Kind != Count {
		return fmt.Errorf("agg: %s(*) is not valid SQL; only COUNT takes *", s.Kind)
	}
	return nil
}

// Empty returns f(∅) — the default value the outerjoin g:f(∅) assigns to
// empty groups (the paper's count-bug fix): 0 for COUNT, NULL otherwise.
func (s Spec) Empty() types.Value {
	if s.Kind == Count {
		return types.NewInt(0)
	}
	return types.Null()
}

// Acc accumulates one aggregate over a stream of input rows, each fed
// with the columns that hold its argument (AddOn): for Star specs the
// argument tuple, otherwise the one column holding the argument value.
type Acc struct {
	spec  Spec
	count int64
	sum   float64
	sumI  int64
	isInt bool
	first bool
	best  types.Value // MIN/MAX running value
	// seen is the DISTINCT set, allocated on first insertion.
	seen *types.RowIndex
	// base, when set, is the accumulator this one overlays (Overlay): its
	// DISTINCT set is consulted read-only before this one's own.
	base *Acc
}

// NewAcc returns a fresh accumulator for the spec.
func NewAcc(spec Spec) *Acc {
	return &Acc{spec: spec, isInt: true, first: true}
}

// Overlay returns an accumulator that continues base's fold without
// copying or modifying it: counters start from base's, and DISTINCT
// arguments base has already seen are duplicates here too, so the result
// equals a fresh accumulator fed base's inputs and then the overlay's.
// Any number of overlays may share one base, also concurrently, as long
// as nothing is added to the base afterwards; base must not itself be an
// overlay. That is what lets Eqv. 5 fold the tuples common to every
// group once.
func Overlay(base *Acc) *Acc {
	a := *base
	a.seen, a.base = nil, base
	return &a
}

// OverlayDeduped is Overlay for a caller that deduplicates a DISTINCT
// aggregate's arguments itself, each checked against base's set (Seen)
// first: the overlay counts every argument it is fed and keeps no set.
func OverlayDeduped(base *Acc) *Acc {
	a := Overlay(base)
	a.spec.Distinct = false
	return a
}

// Seen reports whether row's argument columns cols are in a DISTINCT
// accumulator's set: whether it was fed them.
func (a *Acc) Seen(row []types.Value, cols []int) bool {
	return a.seen != nil && a.seen.First(row, cols) >= 0
}

// AddOn feeds one input row whose argument is its columns cols — nil
// for the whole row, which then holds just the argument when the spec is
// not Star. Per SQL, NULL arguments are skipped for every function
// except COUNT(*) (whose "argument" is the row itself and is never NULL
// as a whole — a tuple of all NULLs still counts). A DISTINCT
// accumulator keys its set on cols and retains the row itself instead of
// copying its argument out, so no key tuple is ever built: the caller
// passes an immutable row (or a slice it will not write again), and the
// same cols on every call.
func (a *Acc) AddOn(row []types.Value, cols []int) {
	var v types.Value
	if !a.spec.Star {
		switch {
		case len(cols) == 1:
			v = row[cols[0]]
		case cols == nil && len(row) == 1:
			v = row[0]
		default:
			panic(fmt.Sprintf("agg: %s expects 1 argument, got columns %v of a row of %d", a.spec, cols, len(row)))
		}
		if v.IsNull() {
			return
		}
	}
	if a.spec.Distinct && a.dup(row, cols) {
		return
	}
	a.count++
	if a.spec.Star {
		return
	}
	switch a.spec.Kind {
	case Count:
		// counting is enough
	case Sum, Avg:
		if i, ok := v.IntOk(); ok && a.isInt {
			a.sumI += i
		} else {
			if a.isInt {
				a.sum = float64(a.sumI)
				a.isInt = false
			}
			f, _ := v.AsFloat()
			a.sum += f
		}
	case Min:
		if a.first {
			a.best = v
		} else if c, ok := types.Compare(v, a.best); ok && c < 0 {
			a.best = v
		}
		a.first = false
	case Max:
		if a.first {
			a.best = v
		} else if c, ok := types.Compare(v, a.best); ok && c > 0 {
			a.best = v
		}
		a.first = false
	}
}

// dup reports whether row's argument columns cols were added before, to
// this accumulator or the one it overlays, and remembers row if not.
func (a *Acc) dup(row []types.Value, cols []int) bool {
	if a.base != nil && a.base.Seen(row, cols) {
		return true
	}
	if a.seen == nil {
		a.seen = types.NewRowIndex(nil, cols, false, 0)
	}
	_, added := a.seen.Push(row)
	return !added
}

// poisonCount is what a poisoned accumulator (Scrub) holds.
const poisonCount = -0x0badf00d

// Scrub empties accs, a slab of accumulators handed back for reuse: it
// hands each one's DISTINCT set back (types.RowIndex.Release) — a set is
// its own, an overlay keeps none of its base's — and drops its running
// MIN or MAX and its base, so that a pooled slab pins nothing. In a
// build with the race detector (types.PoisonReleased) each keeps its
// spec but holds a count, sum and best value no input folds to, so that a
// result read after release decides wrongly.
func Scrub(accs []Acc) {
	for i := range accs {
		a := &accs[i]
		if a.seen != nil {
			a.seen.Release()
		}
		if types.PoisonReleased {
			*a = Acc{spec: a.spec, count: poisonCount, sum: poisonCount, sumI: poisonCount, isInt: true, best: types.NewInt(poisonCount)}
		} else {
			*a = Acc{}
		}
	}
}

// Result returns the aggregate value; on an empty (post-NULL-filtering)
// input it returns f(∅): 0 for COUNT, NULL otherwise.
func (a *Acc) Result() types.Value {
	switch a.spec.Kind {
	case Count:
		return types.NewInt(a.count)
	case Sum:
		if a.count == 0 {
			return types.Null()
		}
		if a.isInt {
			return types.NewInt(a.sumI)
		}
		return types.NewFloat(a.sum)
	case Avg:
		if a.count == 0 {
			return types.Null()
		}
		total := a.sum
		if a.isInt {
			total = float64(a.sumI)
		}
		return types.NewFloat(total / float64(a.count))
	default: // Min, Max
		if a.first {
			return types.Null()
		}
		return a.best
	}
}
