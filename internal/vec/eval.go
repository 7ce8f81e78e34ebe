package vec

import (
	"disqo/internal/storage"
	"disqo/internal/types"
)

// evalCtx carries an evaluation's state: the window's columns and its
// length, the comparison counter, and small buffer free-lists so nested
// operators reuse scratch space instead of allocating per node per
// window.
type evalCtx struct {
	f    Frame
	n    int
	cmps int64

	tfree [][]types.TriBool
	vfree [][]types.Value
	ifree [][]int32
}

// col returns column i's vector.
func (c *evalCtx) col(i int) *storage.ColVec { return &c.f[i] }

// take pops a buffer of at least the window's n entries off a free
// list, or makes one. A buffer shorter than that (a Scratch's last
// window is its shortest) is dropped.
func take[T any](free *[][]T, n int) []T {
	if k := len(*free); k > 0 {
		b := (*free)[k-1]
		*free = (*free)[:k-1]
		if len(b) >= n {
			return b
		}
	}
	return make([]T, n)
}

// give pushes b, at its full capacity, back onto a free list.
func give[T any](free *[][]T, b []T) { *free = append(*free, b[:cap(b)]) }

// pnode is a compiled predicate operator. eval computes the truth value
// of each listed row r of the window (numbered from its first row, 0),
// writing res[r]; entries for unlisted rows are left untouched.
type pnode interface {
	eval(ctx *evalCtx, rows []int32, res []types.TriBool) error
}

// snode is a compiled scalar operator; same indexing contract as pnode.
type snode interface {
	eval(ctx *evalCtx, rows []int32, res []types.Value) error
}

// pcmp is θ-comparison. Two operands that are each a column or a
// constant, one at least a column, are read per row without boxing a
// vector: uniform integer columns, NULLs allowed, and integer constants
// by their payload slices; any other column or constant (floats, a
// gathered aggregate result with NULLs, strings, mixed kinds) one Value
// at a time through types.CompareValues. Everything else boxes both
// operands' vectors through types.CompareValues, which the typed loops
// match bit for bit on the rows they cover.
type pcmp struct {
	op   types.CompareOp
	l, r snode
}

func (p *pcmp) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	ctx.cmps += int64(len(rows))
	if p.direct(ctx, rows, res) {
		return nil
	}
	lv := take(&ctx.vfree, ctx.n)
	defer give(&ctx.vfree, lv)
	if err := p.l.eval(ctx, rows, lv); err != nil {
		return err
	}
	rv := take(&ctx.vfree, ctx.n)
	defer give(&ctx.vfree, rv)
	if err := p.r.eval(ctx, rows, rv); err != nil {
		return err
	}
	for _, r := range rows {
		res[r] = types.CompareValues(p.op, lv[r], rv[r])
	}
	return nil
}

// operand is a comparison operand read per row: column col, or the
// constant k when col is nil.
type operand struct {
	col *storage.ColVec
	k   types.Value
}

func (o *operand) at(r int32) types.Value {
	if o.col == nil {
		return o.k
	}
	return o.col.Value(int(r))
}

// ints reports whether the operand is an integer column (NULLs allowed)
// or an integer constant.
func (o *operand) ints() bool {
	if o.col == nil {
		return o.k.Kind() == types.KindInt
	}
	return o.col.Kind == types.KindInt && o.col.Mixed == nil
}

func (ctx *evalCtx) operand(s snode) (operand, bool) {
	switch x := s.(type) {
	case scol:
		return operand{col: ctx.col(int(x))}, true
	case *sconst:
		return operand{k: x.v}, true
	}
	return operand{}, false
}

// direct is pcmp's per-row path: it reports false, having written
// nothing, unless both operands are columns or constants and one is a
// column.
func (p *pcmp) direct(ctx *evalCtx, rows []int32, res []types.TriBool) bool {
	l, lok := ctx.operand(p.l)
	r, rok := ctx.operand(p.r)
	if !lok || !rok || l.col == nil && r.col == nil {
		return false
	}
	op := p.op
	if l.col == nil { // a constant on the left: compare the column to it
		l, r, op = r, l, op.Flip()
	}
	if !l.ints() || !r.ints() {
		for _, i := range rows {
			res[i] = types.CompareValues(op, l.at(i), r.at(i))
		}
		return true
	}
	ln := l.col.Nulls
	if r.col == nil {
		k, _ := r.k.IntOk()
		for _, i := range rows {
			if ln != nil && ln[i] {
				res[i] = types.Unknown
			} else {
				res[i] = cmpInts(op, l.col.Ints[i], k)
			}
		}
		return true
	}
	rn := r.col.Nulls
	for _, i := range rows {
		if ln != nil && ln[i] || rn != nil && rn[i] {
			res[i] = types.Unknown
		} else {
			res[i] = cmpInts(op, l.col.Ints[i], r.col.Ints[i])
		}
	}
	return true
}

// cmpInts mirrors types.CompareValues for two non-NULL integers.
func cmpInts(op types.CompareOp, a, b int64) types.TriBool {
	switch op {
	case types.EQ:
		return types.TriOf(a == b)
	case types.NE:
		return types.TriOf(a != b)
	case types.LT:
		return types.TriOf(a < b)
	case types.LE:
		return types.TriOf(a <= b)
	case types.GT:
		return types.TriOf(a > b)
	default: // GE
		return types.TriOf(a >= b)
	}
}

// pand is n-ary conjunction: operands run in list order, each over only
// the rows no earlier operand decided FALSE — the vectorized form of
// the interpreter's short-circuit, so the comparison charge matches the
// row path exactly.
type pand struct{ parts []pnode }

func (p *pand) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	if err := p.parts[0].eval(ctx, rows, res); err != nil {
		return err
	}
	act := take(&ctx.ifree, ctx.n)[:0]
	defer give(&ctx.ifree, act)
	for _, r := range rows {
		if res[r] != types.False {
			act = append(act, r)
		}
	}
	tmp := take(&ctx.tfree, ctx.n)
	defer give(&ctx.tfree, tmp)
	for _, part := range p.parts[1:] {
		if len(act) == 0 {
			break
		}
		if err := part.eval(ctx, act, tmp); err != nil {
			return err
		}
		kept := act[:0]
		for _, r := range act {
			t := res[r].And(tmp[r])
			res[r] = t
			if t != types.False {
				kept = append(kept, r)
			}
		}
		act = kept
	}
	return nil
}

// por is n-ary disjunction over the shrinking still-undecided set (rows
// not yet TRUE) — the BestD evaluation shape; the planner orders parts
// so the cheap, high-yield disjuncts run first and decide most rows.
type por struct{ parts []pnode }

func (p *por) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	if err := p.parts[0].eval(ctx, rows, res); err != nil {
		return err
	}
	act := take(&ctx.ifree, ctx.n)[:0]
	defer give(&ctx.ifree, act)
	for _, r := range rows {
		if res[r] != types.True {
			act = append(act, r)
		}
	}
	tmp := take(&ctx.tfree, ctx.n)
	defer give(&ctx.tfree, tmp)
	for _, part := range p.parts[1:] {
		if len(act) == 0 {
			break
		}
		if err := part.eval(ctx, act, tmp); err != nil {
			return err
		}
		kept := act[:0]
		for _, r := range act {
			t := res[r].Or(tmp[r])
			res[r] = t
			if t != types.True {
				kept = append(kept, r)
			}
		}
		act = kept
	}
	return nil
}

// pmask maps each row's truth value through a table indexed by it: NOT
// and IS TRUE.
type pmask struct {
	child pnode
	to    [3]types.TriBool
}

var (
	notMask    = [3]types.TriBool{types.False: types.True, types.True: types.False, types.Unknown: types.Unknown}
	isTrueMask = [3]types.TriBool{types.False: types.False, types.True: types.True, types.Unknown: types.False}
)

func (p *pmask) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	if err := p.child.eval(ctx, rows, res); err != nil {
		return err
	}
	for _, r := range rows {
		res[r] = p.to[res[r]]
	}
	return nil
}

// plike is LIKE. A string column, NULLs allowed, matched against a
// string constant reads the column's strings directly, as pcmp's fast
// path reads its integers; everything else boxes both sides through
// types.Like.
type plike struct{ l, pat snode }

func (p *plike) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	if lc, ok := p.l.(scol); ok {
		cv := ctx.col(int(lc))
		if pc, ok := p.pat.(*sconst); ok && cv.Kind == types.KindString && cv.Mixed == nil {
			if pat, ok := pc.v.StrOk(); ok {
				for _, r := range rows {
					if cv.Nulls != nil && cv.Nulls[r] {
						res[r] = types.Unknown
					} else {
						res[r] = types.TriOf(types.LikeMatch(cv.Strs[r], pat))
					}
				}
				return nil
			}
		}
	}
	lv := take(&ctx.vfree, ctx.n)
	defer give(&ctx.vfree, lv)
	if err := p.l.eval(ctx, rows, lv); err != nil {
		return err
	}
	pv := take(&ctx.vfree, ctx.n)
	defer give(&ctx.vfree, pv)
	if err := p.pat.eval(ctx, rows, pv); err != nil {
		return err
	}
	for _, r := range rows {
		res[r] = types.Like(lv[r], pv[r])
	}
	return nil
}

type pisnull struct{ child snode }

func (p *pisnull) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	v := take(&ctx.vfree, ctx.n)
	defer give(&ctx.vfree, v)
	if err := p.child.eval(ctx, rows, v); err != nil {
		return err
	}
	for _, r := range rows {
		res[r] = types.TriOf(v[r].IsNull())
	}
	return nil
}

// pvalue interprets a scalar as a truth value (NULL → UNKNOWN), the
// interpreter's default-case behavior.
type pvalue struct{ child snode }

func (p *pvalue) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	v := take(&ctx.vfree, ctx.n)
	defer give(&ctx.vfree, v)
	if err := p.child.eval(ctx, rows, v); err != nil {
		return err
	}
	for _, r := range rows {
		res[r] = types.TriFromValue(v[r])
	}
	return nil
}

// scol is a column reference, by position: a word, which an snode holds
// without an allocation for the first 256 columns.
type scol int

func (s scol) eval(ctx *evalCtx, rows []int32, res []types.Value) error {
	cv := ctx.col(int(s))
	for _, r := range rows {
		res[r] = cv.Value(int(r))
	}
	return nil
}

type sconst struct{ v types.Value }

func (s *sconst) eval(ctx *evalCtx, rows []int32, res []types.Value) error {
	for _, r := range rows {
		res[r] = s.v
	}
	return nil
}

type sarith struct {
	op   types.ArithOp
	l, r snode
}

func (s *sarith) eval(ctx *evalCtx, rows []int32, res []types.Value) error {
	lv := take(&ctx.vfree, ctx.n)
	defer give(&ctx.vfree, lv)
	if err := s.l.eval(ctx, rows, lv); err != nil {
		return err
	}
	rv := take(&ctx.vfree, ctx.n)
	defer give(&ctx.vfree, rv)
	if err := s.r.eval(ctx, rows, rv); err != nil {
		return err
	}
	for _, r := range rows {
		v, err := types.Arith(s.op, lv[r], rv[r])
		if err != nil {
			return err
		}
		res[r] = v
	}
	return nil
}

// spred renders a predicate's truth value as a SQL value (UNKNOWN →
// NULL), matching EvalExpr on predicate expressions.
type spred struct{ child pnode }

func (s *spred) eval(ctx *evalCtx, rows []int32, res []types.Value) error {
	t := take(&ctx.tfree, ctx.n)
	defer give(&ctx.tfree, t)
	if err := s.child.eval(ctx, rows, t); err != nil {
		return err
	}
	for _, r := range rows {
		res[r] = t[r].Value()
	}
	return nil
}
