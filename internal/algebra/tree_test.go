package algebra_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	. "disqo/internal/algebra"

	"disqo/internal/agg"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// One sample of every operator kind and of every expression kind. The
// tests below drive the generic maps and every derived traversal over
// them; TestSamplesCoverEveryKind reads the package source, so a kind
// added later and left out of the tables — or out of tree.go's switches,
// which the other tests then catch — fails here.

func scan(name, prefix string) *Scan {
	return NewScan(name, name, storage.NewSchema(prefix+"1", prefix+"2"))
}

var (
	countStar = agg.Spec{Kind: agg.Count, Star: true}
	sumSpec   = agg.Spec{Kind: agg.Sum}
)

func opSamples() []Op {
	r, s := scan("r", "r.a"), scan("s", "s.b")
	rn, err := NewRename(r, [][2]string{{"x", "r.a1"}})
	if err != nil {
		panic(err)
	}
	aggs := []AggItem{
		{Out: "n", Spec: countStar, ArgAttrs: []string{"s.b1", "s.b2"}},
		{Out: "g", Spec: sumSpec, Arg: Arith(types.Add, Col("s.b1"), ConstInt(10))},
		{Out: "h", Spec: sumSpec, Arg: Arith(types.Add, Col("s.b2"), ConstInt(20))},
	}
	bp := NewBypassSelect(r, Cmp(types.GT, Col("r.a1"), ConstInt(1)))
	tagged := NewBinaryGroup(r, s, Cmp(types.LT, Col("r.a2"), Col("s.b2")), aggs)
	tagged.Tag = "s.b1"
	return []Op{
		r,
		NewSelect(r, Cmp(types.EQ, Col("r.a1"), ConstInt(2))),
		bp,
		Pos(bp),
		NewProject(r, []string{"r.a2"}),
		rn,
		NewMap(r, "m", Arith(types.Add, Col("r.a1"), ConstInt(3))),
		NewCross(r, s),
		NewJoin(r, s, Cmp(types.EQ, Col("r.a1"), Col("s.b1"))),
		NewSemiJoin(r, s, Cmp(types.EQ, Col("r.a2"), Col("s.b1"))),
		NewAntiJoin(r, s, Cmp(types.NE, Col("r.a1"), Col("s.b2"))),
		NewLeftOuterJoin(r, s, Cmp(types.GE, Col("r.a1"), Col("s.b1")),
			[]Default{{Attr: "s.b2", Val: types.NewInt(0)}}),
		NewGroupBy(s, []string{"s.b2"}, aggs, false),
		tagged,
		NewUnionDisjoint(Pos(bp), Neg(bp)),
		NewUnionAll(r, scan("r2", "r.a")),
		NewDistinct(r),
		NewLimit(r, 7),
		NewSort(r, []SortKey{{Attr: "r.a1", Desc: true}}),
	}
}

// planted is the subquery the discovery tests hide; its block scans p.
func planted() *ScalarSubquery {
	return Subquery(countStar, nil,
		NewSelect(scan("p", "p.c"), Cmp(types.EQ, Col("p.c1"), Col("r.a1"))))
}

func exprSamples() []Expr {
	// The block is correlated on r.a9.
	block := NewProject(NewSelect(scan("s", "s.b"), Cmp(types.EQ, Col("s.b2"), Col("r.a9"))), []string{"s.b1"})
	return []Expr{
		Col("r.a1"),
		ConstInt(4),
		Cmp(types.LT, Col("k1"), Col("k2")),
		And(Col("k1"), Col("k2")),
		Or(Col("k1"), Col("k2")),
		Not(Col("k1")),
		Arith(types.Mul, Col("k1"), Col("k2")),
		Like(Col("k1"), Col("k2")),
		IsNull(Col("k1")),
		IsTrue(Col("k1")),
		Subquery(sumSpec, Col("k1"), block),
		Quant(In, Col("k1"), block),
		AllAny(types.GT, true, Col("k1"), block),
	}
}

func TestSamplesCoverEveryKind(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Operator kinds are the pointer receivers of Label, expression kinds
	// those of String.
	declared := map[string][]string{}
	for _, f := range pkgs["algebra"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				name := fn.Name.Name
				declared[name] = append(declared[name], "*algebra."+star.X.(*ast.Ident).Name)
			}
		}
	}
	check := func(what string, want []string, samples []string) {
		sort.Strings(want)
		sort.Strings(samples)
		if !reflect.DeepEqual(want, samples) {
			t.Errorf("%s kinds declared in the package:\n  %v\nsampled here:\n  %v", what, want, samples)
		}
	}
	var ops, exprs []string
	for _, op := range opSamples() {
		ops = append(ops, reflect.TypeOf(op).String())
	}
	for _, e := range exprSamples() {
		exprs = append(exprs, reflect.TypeOf(e).String())
	}
	check("operator", declared["Label"], ops)
	check("expression", declared["String"], exprs)
}

func sameOp(op Op) (Op, error)      { return op, nil }
func sameExpr(e Expr) (Expr, error) { return e, nil }

func TestIdentityMapReturnsTheNodeItself(t *testing.T) {
	for _, op := range opSamples() {
		if out, err := MapChildren(op, sameOp, sameExpr); err != nil || out != op {
			t.Errorf("%T: identity map returned %v, %v", op, out, err)
		}
	}
	for _, e := range exprSamples() {
		if out, err := MapExprChildren(e, sameExpr, sameOp); err != nil || out != e {
			t.Errorf("%T: identity map returned %v, %v", e, out, err)
		}
	}
}

// nth returns a map function that replaces the n-th value it is shown
// (counting from 0) and reports through hit whether there was one.
func nth[T any](n int, repl func(T) T, old *T, hit *bool) func(T) (T, error) {
	seen := 0
	return func(x T) (T, error) {
		seen++
		if seen-1 != n {
			return x, nil
		}
		*old, *hit = x, true
		return repl(x), nil
	}
}

func TestMappingOneChildOfAnOperator(t *testing.T) {
	// A replacement input must keep the schema; Distinct passes it through.
	wrap := func(in Op) Op { return NewDistinct(in) }
	mark := func(e Expr) Expr { return Not(e) }
	for _, op := range opSamples() {
		for i := 0; ; i++ {
			var old Op
			hit := false
			out, err := MapChildren(op, nth(i, wrap, &old, &hit), sameExpr)
			if err != nil {
				t.Fatalf("%T input %d: %v", op, i, err)
			}
			if !hit {
				if i != len(op.Inputs()) {
					t.Errorf("%T: map showed %d inputs, Inputs has %d", op, i, len(op.Inputs()))
				}
				break
			}
			checkSameBut(t, op, out)
			for j, in := range out.Inputs() {
				if j == i && (in == old || in.Inputs()[0] != old) || j != i && in != op.Inputs()[j] {
					t.Errorf("%T input %d: position %d is %s", op, i, j, in.Label())
				}
			}
			if out.Label() != op.Label() || !reflect.DeepEqual(AppendExprs(nil, out), AppendExprs(nil, op)) {
				t.Errorf("%T input %d: label or expressions moved: %s", op, i, out.Label())
			}
		}
		for i := 0; ; i++ {
			var old Expr
			hit := false
			out, err := MapChildren(op, sameOp, nth(i, mark, &old, &hit))
			if err != nil {
				t.Fatalf("%T expr %d: %v", op, i, err)
			}
			if !hit {
				if i != len(AppendExprs(nil, op)) {
					t.Errorf("%T: map showed %d expressions, AppendExprs has %d", op, i, len(AppendExprs(nil, op)))
				}
				break
			}
			checkSameBut(t, op, out)
			if !reflect.DeepEqual(out.Inputs(), op.Inputs()) {
				t.Errorf("%T expr %d: inputs moved", op, i)
			}
			want := strings.Replace(op.Label(), old.String(), mark(old).String(), 1)
			if out.Label() != want || AppendExprs(nil, out)[i].String() != mark(old).String() {
				t.Errorf("%T expr %d: label %s, want %s", op, i, out.Label(), want)
			}
		}
	}
}

// checkSameBut checks what mapping a child must never change: the kind,
// the schema, and that a fresh node was built.
func checkSameBut(t *testing.T, op, out Op) {
	t.Helper()
	if out == op || reflect.TypeOf(out) != reflect.TypeOf(op) || !out.Schema().Equal(op.Schema()) {
		t.Errorf("%T mapped to %T with schema %s (was %s)", op, out, out.Schema(), op.Schema())
	}
}

func TestMappingOneChildOfAnExpression(t *testing.T) {
	mark := func(Expr) Expr { return Col("zz") }
	otherBlock := func(Op) Op { return NewProject(scan("t", "t.c"), []string{"t.c1"}) }
	for _, e := range exprSamples() {
		for i := 0; ; i++ {
			var old Expr
			hit := false
			out, err := MapExprChildren(e, nth(i, mark, &old, &hit), sameOp)
			if err != nil {
				t.Fatalf("%T child %d: %v", e, i, err)
			}
			if !hit {
				break
			}
			want := strings.Replace(e.String(), old.String(), "zz", 1)
			if out == e || reflect.TypeOf(out) != reflect.TypeOf(e) || out.String() != want {
				t.Errorf("%T child %d: got %s, want %s", e, i, out, want)
			}
		}
		var old Op
		hit := false
		out, err := MapExprChildren(e, sameExpr, nth(0, otherBlock, &old, &hit))
		if err != nil {
			t.Fatalf("%T plan: %v", e, err)
		}
		if !hit {
			continue
		}
		want := strings.Replace(e.String(), PlanInline(old), PlanInline(otherBlock(nil)), 1)
		if reflect.TypeOf(out) != reflect.TypeOf(e) || out.String() != want {
			t.Errorf("%T plan: got %s, want %s", e, out, want)
		}
		type nested interface{ Free() []string }
		if was, is := e.(nested).Free(), out.(nested).Free(); len(was) != 1 || was[0] != "r.a9" || len(is) != 0 {
			t.Errorf("%T plan: free columns %v, then %v; want [r.a9], then none (the new block is uncorrelated)", e, was, is)
		}
	}
}

// found checks that every traversal derived from the tree's shape sees
// the planted subquery's block under root, whose operator op embeds it.
func found(t *testing.T, where string, op Op, sub *ScalarSubquery, outermost bool) {
	t.Helper()
	root := NewDistinct(op)
	has := false
	for _, e := range AppendExprs(nil, op) {
		has = has || HasSubquery(e)
	}
	if !has || !ContainsSubquery(root) {
		t.Errorf("%s: HasSubquery %v, ContainsSubquery %v", where, has, ContainsSubquery(root))
	}
	in := func(plans []Op) bool {
		for _, p := range plans {
			if p == sub.Plan {
				return true
			}
		}
		return false
	}
	if !in(NestedPlans(op)) {
		t.Errorf("%s: NestedPlans misses the planted block", where)
	}
	scannedP := false
	blocks := WalkNested(root, func(o Op) {
		if s, ok := o.(*Scan); ok && s.Table == "p" {
			scannedP = true
		}
	})
	if !in(blocks) || !scannedP {
		t.Errorf("%s: WalkNested lists the block %v, walks it %v", where, in(blocks), scannedP)
	}
	// A subquery's operand belongs to that subquery: the search stops at
	// the outermost one, which is then the only subquery reported — the
	// planted correlated scalar one when it is outermost.
	var subs []Expr
	Walk(root, func(o Op) bool {
		for _, e := range AppendExprs(nil, o) {
			subs = append(subs, SubqueryExprs(e)...)
		}
		return true
	})
	if len(subs) != 1 || outermost && (subs[0] != sub || len(sub.Free()) == 0) {
		t.Errorf("%s: SubqueryExprs over the plan = %v", where, subs)
	}
}

func TestPlantedSubqueryIsFoundEverywhere(t *testing.T) {
	r := scan("r", "r.a")
	// Under every child position of every composite expression kind —
	// LIKE's pattern and a subquery's own operand included.
	for _, e := range exprSamples() {
		for i := 0; ; i++ {
			sub := planted()
			var old Expr
			hit := false
			pred, err := MapExprChildren(e, nth(i, func(Expr) Expr { return sub }, &old, &hit), sameOp)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				break
			}
			_, inOperand := e.(interface{ Free() []string })
			found(t, reflect.TypeOf(e).String()+" child "+old.String(), NewSelect(r, pred), sub, !inOperand)
		}
	}
	// Under every expression position of every expression-bearing operator.
	for _, op := range opSamples() {
		for i := 0; ; i++ {
			sub := planted()
			var old Expr
			hit := false
			withSub, err := MapChildren(op, sameOp,
				nth(i, func(e Expr) Expr { return Cmp(types.EQ, e, sub) }, &old, &hit))
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				break
			}
			found(t, reflect.TypeOf(op).String()+" expr "+old.String(), withSub, sub, true)
		}
	}
}
