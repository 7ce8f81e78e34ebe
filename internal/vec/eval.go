package vec

import (
	"disqo/internal/storage"
	"disqo/internal/types"
)

// evalCtx carries per-Eval state: the batch, the morsel window, the
// comparison counter, and small buffer free-lists so nested operators
// reuse scratch space instead of allocating per node per morsel.
type evalCtx struct {
	b    *storage.Batch
	lo   int
	n    int
	cmps int64

	tfree [][]types.TriBool
	vfree [][]types.Value
	ifree [][]int32
}

func (c *evalCtx) getT() []types.TriBool {
	if k := len(c.tfree); k > 0 {
		b := c.tfree[k-1]
		c.tfree = c.tfree[:k-1]
		return b
	}
	return make([]types.TriBool, c.n)
}

func (c *evalCtx) putT(b []types.TriBool) { c.tfree = append(c.tfree, b) }

func (c *evalCtx) getV() []types.Value {
	if k := len(c.vfree); k > 0 {
		b := c.vfree[k-1]
		c.vfree = c.vfree[:k-1]
		return b
	}
	return make([]types.Value, c.n)
}

func (c *evalCtx) putV(b []types.Value) { c.vfree = append(c.vfree, b) }

func (c *evalCtx) getI() []int32 {
	if k := len(c.ifree); k > 0 {
		b := c.ifree[k-1]
		c.ifree = c.ifree[:k-1]
		return b
	}
	return make([]int32, 0, c.n)
}

func (c *evalCtx) putI(b []int32) { c.ifree = append(c.ifree, b[:0]) }

// pnode is a compiled predicate operator. eval computes the truth value
// of each listed row (absolute indices into the batch), writing
// res[r-ctx.lo]; entries for unlisted rows are left untouched.
type pnode interface {
	eval(ctx *evalCtx, rows []int32, res []types.TriBool) error
}

// snode is a compiled scalar operator; same indexing contract as pnode.
type snode interface {
	eval(ctx *evalCtx, rows []int32, res []types.Value) error
}

// pcmp is θ-comparison. Uniform NULL-free integer columns compared to an
// integer constant or column take a payload-slice fast path; everything
// else boxes through types.CompareValues, which the fast path matches
// bit for bit on the rows it covers.
type pcmp struct {
	op   types.CompareOp
	l, r snode
}

func (p *pcmp) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	lo := ctx.lo
	if lc, ok := p.l.(*scol); ok {
		cv := ctx.b.Col(lc.idx)
		if cv.Kind == types.KindInt && cv.Nulls == nil && cv.Mixed == nil {
			if rc, ok := p.r.(*sconst); ok {
				if k, isInt := rc.v.IntOk(); isInt {
					for _, r := range rows {
						res[r-int32(lo)] = cmpInts(p.op, cv.Ints[r], k)
					}
					ctx.cmps += int64(len(rows))
					return nil
				}
			}
			if rc, ok := p.r.(*scol); ok {
				rv := ctx.b.Col(rc.idx)
				if rv.Kind == types.KindInt && rv.Nulls == nil && rv.Mixed == nil {
					for _, r := range rows {
						res[r-int32(lo)] = cmpInts(p.op, cv.Ints[r], rv.Ints[r])
					}
					ctx.cmps += int64(len(rows))
					return nil
				}
			}
		}
	}
	lv := ctx.getV()
	defer ctx.putV(lv)
	if err := p.l.eval(ctx, rows, lv); err != nil {
		return err
	}
	rv := ctx.getV()
	defer ctx.putV(rv)
	if err := p.r.eval(ctx, rows, rv); err != nil {
		return err
	}
	for _, r := range rows {
		i := r - int32(lo)
		res[i] = types.CompareValues(p.op, lv[i], rv[i])
	}
	ctx.cmps += int64(len(rows))
	return nil
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
	lo := int32(ctx.lo)
	if err := p.parts[0].eval(ctx, rows, res); err != nil {
		return err
	}
	act := ctx.getI()
	defer ctx.putI(act)
	for _, r := range rows {
		if res[r-lo] != types.False {
			act = append(act, r)
		}
	}
	tmp := ctx.getT()
	defer ctx.putT(tmp)
	for _, part := range p.parts[1:] {
		if len(act) == 0 {
			break
		}
		if err := part.eval(ctx, act, tmp); err != nil {
			return err
		}
		kept := act[:0]
		for _, r := range act {
			t := res[r-lo].And(tmp[r-lo])
			res[r-lo] = t
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
	lo := int32(ctx.lo)
	if err := p.parts[0].eval(ctx, rows, res); err != nil {
		return err
	}
	act := ctx.getI()
	defer ctx.putI(act)
	for _, r := range rows {
		if res[r-lo] != types.True {
			act = append(act, r)
		}
	}
	tmp := ctx.getT()
	defer ctx.putT(tmp)
	for _, part := range p.parts[1:] {
		if len(act) == 0 {
			break
		}
		if err := part.eval(ctx, act, tmp); err != nil {
			return err
		}
		kept := act[:0]
		for _, r := range act {
			t := res[r-lo].Or(tmp[r-lo])
			res[r-lo] = t
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
	lo := int32(ctx.lo)
	for _, r := range rows {
		res[r-lo] = p.to[res[r-lo]]
	}
	return nil
}

// plike is LIKE. A string column, NULLs allowed, matched against a
// string constant reads the column's strings directly, as pcmp's fast
// path reads its integers; everything else boxes both sides through
// types.Like.
type plike struct{ l, pat snode }

func (p *plike) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	lo := int32(ctx.lo)
	if lc, ok := p.l.(*scol); ok {
		cv := ctx.b.Col(lc.idx)
		if pc, ok := p.pat.(*sconst); ok && cv.Kind == types.KindString && cv.Mixed == nil {
			if pat, ok := pc.v.StrOk(); ok {
				for _, r := range rows {
					if cv.Nulls != nil && cv.Nulls[r] {
						res[r-lo] = types.Unknown
					} else {
						res[r-lo] = types.TriOf(types.LikeMatch(cv.Strs[r], pat))
					}
				}
				return nil
			}
		}
	}
	lv := ctx.getV()
	defer ctx.putV(lv)
	if err := p.l.eval(ctx, rows, lv); err != nil {
		return err
	}
	pv := ctx.getV()
	defer ctx.putV(pv)
	if err := p.pat.eval(ctx, rows, pv); err != nil {
		return err
	}
	for _, r := range rows {
		res[r-lo] = types.Like(lv[r-lo], pv[r-lo])
	}
	return nil
}

type pisnull struct{ child snode }

func (p *pisnull) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	v := ctx.getV()
	defer ctx.putV(v)
	if err := p.child.eval(ctx, rows, v); err != nil {
		return err
	}
	lo := int32(ctx.lo)
	for _, r := range rows {
		res[r-lo] = types.TriOf(v[r-lo].IsNull())
	}
	return nil
}

// pvalue interprets a scalar as a truth value (NULL → UNKNOWN), the
// interpreter's default-case behavior.
type pvalue struct{ child snode }

func (p *pvalue) eval(ctx *evalCtx, rows []int32, res []types.TriBool) error {
	v := ctx.getV()
	defer ctx.putV(v)
	if err := p.child.eval(ctx, rows, v); err != nil {
		return err
	}
	lo := int32(ctx.lo)
	for _, r := range rows {
		res[r-lo] = types.TriFromValue(v[r-lo])
	}
	return nil
}

type scol struct{ idx int }

func (s *scol) eval(ctx *evalCtx, rows []int32, res []types.Value) error {
	cv := ctx.b.Col(s.idx)
	lo := int32(ctx.lo)
	for _, r := range rows {
		res[r-lo] = cv.Value(int(r))
	}
	return nil
}

type sconst struct{ v types.Value }

func (s *sconst) eval(ctx *evalCtx, rows []int32, res []types.Value) error {
	lo := int32(ctx.lo)
	for _, r := range rows {
		res[r-lo] = s.v
	}
	return nil
}

type sarith struct {
	op   types.ArithOp
	l, r snode
}

func (s *sarith) eval(ctx *evalCtx, rows []int32, res []types.Value) error {
	lv := ctx.getV()
	defer ctx.putV(lv)
	if err := s.l.eval(ctx, rows, lv); err != nil {
		return err
	}
	rv := ctx.getV()
	defer ctx.putV(rv)
	if err := s.r.eval(ctx, rows, rv); err != nil {
		return err
	}
	lo := int32(ctx.lo)
	for _, r := range rows {
		v, err := types.Arith(s.op, lv[r-lo], rv[r-lo])
		if err != nil {
			return err
		}
		res[r-lo] = v
	}
	return nil
}

// spred renders a predicate's truth value as a SQL value (UNKNOWN →
// NULL), matching EvalExpr on predicate expressions.
type spred struct{ child pnode }

func (s *spred) eval(ctx *evalCtx, rows []int32, res []types.Value) error {
	t := ctx.getT()
	defer ctx.putT(t)
	if err := s.child.eval(ctx, rows, t); err != nil {
		return err
	}
	lo := int32(ctx.lo)
	for _, r := range rows {
		res[r-lo] = t[r-lo].Value()
	}
	return nil
}
