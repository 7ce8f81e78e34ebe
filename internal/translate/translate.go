// Package translate turns parsed SQL into the canonical algebra plan the
// paper starts from: each query block becomes a join tree (subquery-free
// conjuncts are pushed into scans and joins) topped by a selection whose
// predicate still embeds nested query blocks as subquery expressions.
// Correlation — an inner block referencing attributes of an enclosing
// block — is resolved through a scope chain and appears in the plan as
// free attribute references (algebra.FreeColumns).
//
// The join tree's order comes from the estimator, not from the FROM
// clause: greedy operator ordering merges, each step, the joined pair of
// inputs with the smallest estimated result, and each join takes its
// smaller estimated input as R, the side a hash join builds on. SELECT *
// still lists the columns in FROM order.
package translate

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Translator translates statements against a catalog. A single Translator
// must be used per statement: it disambiguates repeated range-variable
// names across blocks.
type Translator struct {
	cat  catalog.Reader
	used map[string]bool // range-variable qualifiers in use
	cols []string        // scratch: a conjunct's columns in buildJoinTree
	// expanding guards against recursive view definitions; made by the
	// first view expanded.
	expanding map[string]bool
	est       *stats.Estimator // orders joins; see estimator
}

// New returns a Translator over one catalog state (live catalog or
// pinned snapshot): table and view names resolve against the same
// commit, a FROM reference to a view expanding like a derived table
// over the view's body.
func New(cat catalog.Reader) *Translator {
	return &Translator{cat: cat, used: make(map[string]bool), cols: make([]string, 0, 8)}
}

// rangeVar is one FROM-clause binding in a scope: a base table or a
// derived table (subquery in FROM).
type rangeVar struct {
	name string // the SQL-visible binding (alias or table name)
	qual string // the unique qualifier used in attribute names
	// attrs are the attribute names of the binding's columns, in order:
	// qual.col with col lower-case, made once per binding.
	attrs   []string
	table   *catalog.Table
	derived algebra.Op // non-nil for derived tables
}

// scope is a block's name-resolution context, chained to the enclosing
// block for correlation.
type scope struct {
	parent *scope
	vars   []rangeVar
	g      grouping
}

// attr returns the attribute name of the binding's column col, matched
// case-insensitively; ok is false when the binding has no such column.
func (v *rangeVar) attr(col string) (name string, ok bool) {
	for _, a := range v.attrs {
		if strings.EqualFold(a[len(v.qual)+1:], col) {
			return a, true
		}
	}
	return "", false
}

// scanSchema is the schema of a scan of the binding's table: the
// table's own when the binding qualifies its columns with the table's
// name, as the catalog's schema does.
func (v *rangeVar) scanSchema() *storage.Schema {
	if v.qual == v.table.Name {
		return v.table.Rel.Schema
	}
	return storage.NewSchema(v.attrs...)
}

// resolve maps an identifier to a fully-qualified attribute name and the
// scope that binds it, searching the current block first, then enclosing
// blocks (correlation).
func (sc *scope) resolve(id *sqlparser.Ident) (string, *scope, error) {
	for s := sc; s != nil; s = s.parent {
		if id.Qualifier != "" {
			for i := range s.vars {
				if v := &s.vars[i]; v.name == id.Qualifier {
					attr, ok := v.attr(id.Name)
					if !ok {
						return "", nil, fmt.Errorf("translate: no column %q in %s", id.Name, v.name)
					}
					return attr, s, nil
				}
			}
			continue
		}
		found := ""
		for i := range s.vars {
			if attr, ok := s.vars[i].attr(id.Name); ok {
				if found != "" {
					return "", nil, fmt.Errorf("translate: ambiguous column %q", id.Name)
				}
				found = attr
			}
		}
		if found != "" {
			return found, s, nil
		}
	}
	return "", nil, fmt.Errorf("translate: unknown column %q", id)
}

// column resolves a column read by an expression. Read outside an
// aggregate in a block whose grouping is being translated, it must be a
// grouping attribute should the block group; the first that is not is
// kept for finish to report.
func (sc *scope) column(id *sqlparser.Ident) (string, error) {
	attr, owner, err := sc.resolve(id)
	if err != nil {
		return "", err
	}
	if g := &owner.g; g.active && !g.inAgg && g.ungrouped == nil && !slices.Contains(g.keys, attr) {
		g.ungrouped = id
	}
	return attr, nil
}

// varIndex returns the position in sc.vars of the binding qualified
// qual — a binding of this block, not an enclosing one — or -1.
func (sc *scope) varIndex(qual string) int {
	for i := range sc.vars {
		if sc.vars[i].qual == qual {
			return i
		}
	}
	return -1
}

// Translate converts a full statement into a canonical plan.
func (tr *Translator) Translate(stmt *sqlparser.SelectStmt) (algebra.Op, error) {
	plan, sc, err := tr.translateBlock(stmt, nil)
	if err != nil {
		return nil, err
	}
	return tr.finish(stmt, plan, sc)
}

// grouping is a block's context while its select list and HAVING are
// translated. An aggregate there becomes a Γ output, and a column read
// outside one must be a grouping attribute once the block groups, which
// is known only when the last item and HAVING are translated.
type grouping struct {
	active    bool     // translating the select list or HAVING
	inAgg     bool     // translating an aggregate's argument: a row below Γ
	keys      []string // GROUP BY attributes
	aggs      []algebra.AggItem
	ungrouped *sqlparser.Ident // first column read outside an aggregate and keys
}

// GroupedStarError is the error of a SELECT * whose block groups: Item
// is the first select item that holds an aggregate, -1 when none does
// and GROUP BY or HAVING groups it.
type GroupedStarError struct{ Item int }

func (*GroupedStarError) Error() string { return "translate: SELECT * is not valid in a grouped query" }

// finish builds a SELECT's tail over its block plan, in one order for
// every shape: Γ when the block groups or aggregates (by no keys without
// GROUP BY), σ for HAVING, χ for each computed item, Π, ρ for aliases,
// DISTINCT, Sort, Limit.
func (tr *Translator) finish(stmt *sqlparser.SelectStmt, plan algebra.Op, sc *scope) (algebra.Op, error) {
	g := &sc.g
	for _, e := range stmt.GroupBy {
		id, ok := e.(*sqlparser.Ident)
		if !ok {
			return nil, fmt.Errorf("translate: GROUP BY supports columns only, got %s", e)
		}
		attr, _, err := sc.resolve(id)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(g.keys, attr) {
			g.keys = append(g.keys, attr)
		}
	}
	var outAttrs []string
	var renames [][2]string
	if stmt.Star {
		// FROM order, whatever order the join tree put the columns in.
		for _, v := range sc.vars {
			outAttrs = append(outAttrs, v.attrs...)
		}
	}
	type computed struct {
		name string
		e    algebra.Expr
	}
	var mapBuf [4]computed
	maps := mapBuf[:0]
	g.active = true
	aggItem := -1 // the first item holding an aggregate
	for i, it := range stmt.Items {
		// A column or an aggregate is output as it is; anything else is
		// computed by χ.
		var attr string
		var e algebra.Expr
		var err error
		if id, ok := it.Expr.(*sqlparser.Ident); ok {
			attr, err = sc.column(id)
		} else if e, err = tr.translateExpr(it.Expr, sc); err == nil {
			if c, ok := e.(*algebra.ColRef); ok {
				attr = c.Name
			}
		}
		if err != nil {
			return nil, err
		}
		if aggItem < 0 && len(g.aggs) > 0 {
			aggItem = i
		}
		// A column already output is output again under an alias as a
		// copy χ computes: a rename would rename both.
		if attr != "" && (it.Alias == "" || !slices.Contains(outAttrs, attr)) {
			outAttrs = append(outAttrs, attr)
			if it.Alias != "" && it.Alias != attr {
				renames = append(renames, [2]string{it.Alias, attr})
			}
			continue
		}
		if e == nil {
			e = algebra.Col(attr)
		}
		name := it.Alias
		if name == "" {
			name = "_col" + strconv.Itoa(i+1)
		}
		maps = append(maps, computed{name, e})
		outAttrs = append(outAttrs, name)
	}
	var having algebra.Expr
	if stmt.Having != nil {
		var err error
		if having, err = tr.translateExpr(stmt.Having, sc); err != nil {
			return nil, err
		}
	}
	g.active = false
	if len(stmt.GroupBy) > 0 || having != nil || len(g.aggs) > 0 {
		if stmt.Star {
			return nil, &GroupedStarError{Item: aggItem}
		}
		if g.ungrouped != nil {
			return nil, fmt.Errorf("translate: column %s must appear in GROUP BY or inside an aggregate", g.ungrouped)
		}
		plan = algebra.NewGroupBy(plan, g.keys, g.aggs, len(g.keys) == 0)
	}
	if having != nil {
		plan = algebra.NewSelect(plan, having)
	}
	for _, m := range maps {
		plan = algebra.NewMap(plan, m.name, m.e)
	}
	if err := uniqueOutputs(outAttrs, renames); err != nil {
		return nil, err
	}
	result := algebra.Op(algebra.NewProject(plan, outAttrs))
	if len(renames) > 0 {
		ren, err := algebra.NewRename(result, renames)
		if err != nil {
			return nil, err
		}
		result = ren
	}
	if stmt.Distinct {
		result = algebra.NewDistinct(result)
	}
	if len(stmt.OrderBy) > 0 {
		keys := make([]algebra.SortKey, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			attr, err := orderKey(o.Expr, result.Schema(), sc, renames)
			if err != nil {
				return nil, err
			}
			keys[i] = algebra.SortKey{Attr: attr, Desc: o.Desc}
		}
		result = algebra.NewSort(result, keys)
	}
	if stmt.HasLimit {
		result = algebra.NewLimit(result, stmt.Limit)
	}
	return result, nil
}

// orderKey resolves an ORDER BY key against the output: an output name
// first, else a FROM column that is output under its own name or an
// alias.
func orderKey(e sqlparser.Expr, out *storage.Schema, sc *scope, renames [][2]string) (string, error) {
	id, ok := e.(*sqlparser.Ident)
	if !ok {
		return "", fmt.Errorf("translate: ORDER BY supports columns only, got %s", e)
	}
	if id.Qualifier == "" && out.Has(id.Name) {
		return id.Name, nil
	}
	attr, _, err := sc.resolve(id)
	if err != nil {
		return "", err
	}
	if out.Has(attr) {
		return attr, nil
	}
	for _, rn := range renames {
		if rn[1] == attr {
			return rn[0], nil
		}
	}
	return "", fmt.Errorf("translate: ORDER BY column %s must appear in the select list", id)
}

// nestedBlock translates a block nested in an expression (scalar, IN,
// θ ANY/ALL, EXISTS). No nested form carries GROUP BY (nor so HAVING,
// which the parser takes only after it) or LIMIT, each of which would
// change the block's value, so they are errors; DISTINCT and ORDER BY
// cannot change it and are accepted.
func (tr *Translator) nestedBlock(stmt *sqlparser.SelectStmt, sc *scope) (algebra.Op, *scope, error) {
	switch {
	case len(stmt.GroupBy) > 0:
		return nil, nil, fmt.Errorf("translate: GROUP BY in a nested block is not supported")
	case stmt.HasLimit:
		return nil, nil, fmt.Errorf("translate: LIMIT in a nested block is not supported")
	}
	return tr.translateBlock(stmt, sc)
}

func (tr *Translator) translateAgg(ae *sqlparser.AggExpr, sc *scope) (agg.Spec, algebra.Expr, error) {
	var kind agg.Kind
	switch ae.Func {
	case "COUNT":
		kind = agg.Count
	case "SUM":
		kind = agg.Sum
	case "AVG":
		kind = agg.Avg
	case "MIN":
		kind = agg.Min
	case "MAX":
		kind = agg.Max
	default:
		return agg.Spec{}, nil, fmt.Errorf("translate: unknown aggregate %q", ae.Func)
	}
	spec := agg.Spec{Kind: kind, Distinct: ae.Distinct, Star: ae.Star}
	if err := spec.Validate(); err != nil {
		return agg.Spec{}, nil, err
	}
	if ae.Star {
		return spec, nil, nil
	}
	arg, err := tr.translateExpr(ae.Arg, sc)
	if err != nil {
		return agg.Spec{}, nil, err
	}
	return spec, arg, nil
}

// translateBlock builds the canonical plan for one query block's FROM and
// WHERE clauses (select list, DISTINCT and ORDER BY are the caller's
// concern) and returns the block's scope for further resolution.
func (tr *Translator) translateBlock(stmt *sqlparser.SelectStmt, parent *scope) (algebra.Op, *scope, error) {
	if len(stmt.From) == 0 {
		return nil, nil, fmt.Errorf("translate: query block without FROM")
	}
	sc := &scope{parent: parent, vars: make([]rangeVar, 0, len(stmt.From))}
	for _, ref := range stmt.From {
		name := strings.ToLower(ref.Binding())
		for i := range sc.vars {
			if sc.vars[i].name == name {
				return nil, nil, fmt.Errorf("translate: duplicate range variable %q", name)
			}
		}
		qual := name
		for n := 2; tr.used[qual]; n++ {
			qual = name + "#" + strconv.Itoa(n)
		}
		tr.used[qual] = true
		sc.vars = append(sc.vars, rangeVar{name: name, qual: qual})
		rv := &sc.vars[len(sc.vars)-1]
		viewName := ""
		if ref.Subquery == nil {
			// View reference? Expand it like a derived table.
			if v, isView := tr.cat.View(ref.Table); isView {
				if tr.expanding[v.Name] {
					return nil, nil, fmt.Errorf("translate: recursive view %q", ref.Table)
				}
				viewName, ref.Subquery = v.Name, v.Body
				if tr.expanding == nil {
					tr.expanding = make(map[string]bool)
				}
				tr.expanding[viewName] = true
			}
		}
		if ref.Subquery != nil {
			// Derived table: translate the full inner statement (no
			// correlation into siblings — standard SQL, no LATERAL) and
			// re-qualify its output columns under the alias.
			inner, err := tr.Translate(ref.Subquery)
			delete(tr.expanding, viewName)
			if err != nil {
				return nil, nil, err
			}
			var pairs [][2]string
			colSeen := map[string]bool{}
			for _, attr := range inner.Schema().Attrs() {
				col := attr
				if i := strings.LastIndex(attr, "."); i >= 0 {
					col = attr[i+1:]
				}
				col = strings.ToLower(col)
				if colSeen[col] {
					return nil, nil, fmt.Errorf("translate: derived table %q has duplicate output column %q; add aliases", name, col)
				}
				colSeen[col] = true
				rv.attrs = append(rv.attrs, qual+"."+col)
				pairs = append(pairs, [2]string{rv.attrs[len(rv.attrs)-1], attr})
			}
			renamed, err := algebra.NewRename(inner, pairs)
			if err != nil {
				return nil, nil, err
			}
			rv.derived = renamed
		} else {
			tbl, err := tr.cat.Lookup(ref.Table)
			if err != nil {
				return nil, nil, err
			}
			rv.table = tbl
			// The catalog qualifies a table's columns with its name.
			if rv.attrs = tbl.Rel.Schema.Attrs(); qual != tbl.Name {
				rv.attrs = make([]string, len(tbl.Columns))
				for i, c := range tbl.Columns {
					rv.attrs[i] = qual + "." + strings.ToLower(c.Name)
				}
			}
		}
	}

	// Translate the WHERE predicate with full scope so subqueries and
	// correlation resolve; then distribute subquery-free local conjuncts
	// into the join tree.
	var buf [8]algebra.Expr
	conjuncts := buf[:0]
	if stmt.Where != nil {
		pred, err := tr.translateExpr(stmt.Where, sc)
		if err != nil {
			return nil, nil, err
		}
		conjuncts = algebra.AppendConjuncts(conjuncts, pred)
	}
	return tr.buildJoinTree(sc, conjuncts), sc, nil
}

// predInfo tracks which of the block's range variables a conjunct
// references and whether it is eligible for pushdown.
type predInfo struct {
	expr     algebra.Expr
	lo, hi   int  // its vars' positions in the scope are vars[lo:hi], each once
	pushable bool // no subqueries and at least one local var
	applied  bool
}

// buildJoinTree composes the block's scans into a join tree, pushing
// single-variable conjuncts into per-scan selections and multi-variable
// conjuncts into the join that first covers them. Conjuncts containing
// subqueries (or touching no local variable) stay in a block-level
// selection over the tree — that placement is what makes the
// translation "canonical": nested blocks stay nested.
//
// The join order is greedy operator ordering (GOO; Fegaras, DEXA 1998):
// the access paths start as one component each, and while more than one
// is left, the pair joined by an unapplied conjunct with the smallest
// estimated result, |a|·|b|·Π sel(the conjuncts spanning a and b), is
// merged; only when no pair is joined are the two whose cross product
// is smallest merged. Ties go to FROM order. Each join takes its larger
// estimated input as L and its smaller one as R, the side a hash join
// builds on.
func (tr *Translator) buildJoinTree(sc *scope, conjuncts []algebra.Expr) algebra.Op {
	var infoBuf [8]predInfo
	var varBuf [16]int
	infos, vars := infoBuf[:0], varBuf[:0] // vars: every conjunct's, one after the other
	for _, c := range conjuncts {
		lo, allLocal := len(vars), true
		tr.cols = c.Columns(tr.cols[:0])
		for _, col := range tr.cols {
			v := -1
			if q, _, ok := strings.Cut(col, "."); ok {
				v = sc.varIndex(q)
			}
			if v < 0 {
				// References an enclosing block (correlation) or a
				// synthetic attribute: must stay at block level so the
				// rewriter sees it in canonical position.
				allLocal = false
			} else if !slices.Contains(vars[lo:], v) {
				vars = append(vars, v)
			}
		}
		infos = append(infos, predInfo{expr: c, lo: lo, hi: len(vars),
			pushable: !algebra.HasSubquery(c) && len(vars) > lo && allLocal})
	}

	// Per-variable access paths (scans or derived plans) with
	// single-variable conjuncts applied: the components, in FROM order;
	// comp maps a variable to the index of the component holding it.
	var compBuf [4]algebra.Op
	var compOf [4]int
	comps, comp := compBuf[:0], compOf[:0]
	for i, v := range sc.vars {
		var op algebra.Op
		if v.derived != nil {
			op = v.derived
		} else {
			op = algebra.NewScan(v.table.Name, v.qual, v.scanSchema())
		}
		var selBuf [4]algebra.Expr
		sels := selBuf[:0]
		for j := range infos {
			if pi := &infos[j]; pi.pushable && !pi.applied && pi.hi-pi.lo == 1 && vars[pi.lo] == i {
				sels = append(sels, pi.expr)
				pi.applied = true
			}
		}
		if len(sels) > 0 {
			op = algebra.NewSelect(op, algebra.And(sels...))
		}
		comps, comp = append(comps, op), append(comp, i)
	}

	// spans reports whether an unapplied pushable conjunct lies within
	// components a and b, and so spans them.
	spans := func(pi *predInfo, a, b int) bool {
		if !pi.pushable || pi.applied {
			return false
		}
		for _, v := range vars[pi.lo:pi.hi] {
			if c := comp[v]; c != a && c != b {
				return false
			}
		}
		return true
	}
	for merges := 1; merges < len(comps); merges++ {
		est := tr.estimator()
		bestA, bestB, bestJoined, bestSize := -1, -1, false, 0.0
		for a := range comps {
			if comps[a] == nil {
				continue
			}
			for b := a + 1; b < len(comps); b++ {
				if comps[b] == nil {
					continue
				}
				size, joined := est.Cardinality(comps[a])*est.Cardinality(comps[b]), false
				for j := range infos {
					if pi := &infos[j]; spans(pi, a, b) {
						size *= est.JoinSelectivity(pi.expr, comps[a], comps[b])
						joined = true
					}
				}
				if bestA < 0 || joined && !bestJoined || joined == bestJoined && size < bestSize {
					bestA, bestB, bestJoined, bestSize = a, b, joined, size
				}
			}
		}
		var predBuf [4]algebra.Expr
		preds := predBuf[:0]
		for j := range infos {
			if pi := &infos[j]; spans(pi, bestA, bestB) {
				preds = append(preds, pi.expr)
				pi.applied = true
			}
		}
		l, r := comps[bestA], comps[bestB]
		if est.Cardinality(r) > est.Cardinality(l) {
			l, r = r, l
		}
		if len(preds) > 0 {
			comps[bestA] = algebra.NewJoin(l, r, algebra.And(preds...))
		} else {
			comps[bestA] = algebra.NewCross(l, r)
		}
		comps[bestB] = nil
		for v, c := range comp {
			if c == bestB {
				comp[v] = bestA
			}
		}
	}
	// The last merge covered every variable, so every pushable conjunct
	// went into a scan or a join; what is left stays at block level.
	var restBuf [8]algebra.Expr
	rest := restBuf[:0]
	for _, pi := range infos {
		if !pi.applied {
			rest = append(rest, pi.expr)
		}
	}
	if len(rest) > 0 {
		return algebra.NewSelect(comps[0], algebra.And(rest...))
	}
	return comps[0]
}

// estimator returns the statement's estimator, made on first use: a
// block of one range variable orders nothing.
func (tr *Translator) estimator() *stats.Estimator {
	if tr.est == nil {
		tr.est = stats.New(tr.cat)
	}
	return tr.est
}

// Literal returns the value a literal denotes; ok is false for any
// other expression. It is the one constant rule: an expression's
// literals and INSERT's values are read through it.
func Literal(e sqlparser.Expr) (v types.Value, ok bool) {
	switch x := e.(type) {
	case *sqlparser.IntLit:
		return types.NewInt(x.Val), true
	case *sqlparser.FloatLit:
		return types.NewFloat(x.Val), true
	case *sqlparser.StringLit:
		return types.NewString(x.Val), true
	case *sqlparser.BoolLit:
		return types.NewBool(x.Val), true
	case *sqlparser.NullLit:
		return types.Null(), true
	}
	return types.Value{}, false
}

// translateExpr converts a SQL expression into an algebra expression,
// recursively translating subqueries into embedded plans.
func (tr *Translator) translateExpr(e sqlparser.Expr, sc *scope) (algebra.Expr, error) {
	switch x := e.(type) {
	case *sqlparser.Ident:
		attr, err := sc.column(x)
		if err != nil {
			return nil, err
		}
		return algebra.Col(attr), nil
	case *sqlparser.IntLit, *sqlparser.FloatLit, *sqlparser.StringLit, *sqlparser.BoolLit, *sqlparser.NullLit:
		v, _ := Literal(e)
		return algebra.Const(v), nil
	case *sqlparser.NotExpr:
		inner, err := tr.translateExpr(x.E, sc)
		if err != nil {
			return nil, err
		}
		return algebra.Not(inner), nil
	case *sqlparser.LikeExpr:
		l, err := tr.translateExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		p, err := tr.translateExpr(x.Pattern, sc)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr = algebra.Like(l, p)
		if x.Negated {
			out = algebra.Not(out)
		}
		return out, nil
	case *sqlparser.IsNullExpr:
		inner, err := tr.translateExpr(x.E, sc)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr = algebra.IsNull(inner)
		if x.Negated {
			out = algebra.Not(out)
		}
		return out, nil
	case *sqlparser.BetweenExpr:
		v, err := tr.translateExpr(x.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := tr.translateExpr(x.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := tr.translateExpr(x.Hi, sc)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr = algebra.And(
			algebra.Cmp(types.GE, v, lo), algebra.Cmp(types.LE, v, hi))
		if x.Negated {
			out = algebra.Not(out)
		}
		return out, nil
	case *sqlparser.BinaryExpr:
		l, err := tr.translateExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := tr.translateExpr(x.R, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "AND":
			return algebra.And(l, r), nil
		case "OR":
			return algebra.Or(l, r), nil
		case "+":
			return algebra.Arith(types.Add, l, r), nil
		case "-":
			return algebra.Arith(types.Sub, l, r), nil
		case "*":
			return algebra.Arith(types.Mul, l, r), nil
		case "/":
			return algebra.Arith(types.Div, l, r), nil
		case "=":
			return algebra.Cmp(types.EQ, l, r), nil
		case "<>":
			return algebra.Cmp(types.NE, l, r), nil
		case "<":
			return algebra.Cmp(types.LT, l, r), nil
		case "<=":
			return algebra.Cmp(types.LE, l, r), nil
		case ">":
			return algebra.Cmp(types.GT, l, r), nil
		case ">=":
			return algebra.Cmp(types.GE, l, r), nil
		default:
			return nil, fmt.Errorf("translate: unknown operator %q", x.Op)
		}
	case *sqlparser.SubqueryExpr:
		return tr.translateScalarSubquery(x.Stmt, sc)
	case *sqlparser.ExistsExpr:
		plan, _, err := tr.nestedBlock(x.Stmt, sc)
		if err != nil {
			return nil, err
		}
		q := algebra.Exists
		if x.Negated {
			q = algebra.NotExists
		}
		return algebra.Quant(q, nil, plan), nil
	case *sqlparser.InExpr:
		l, err := tr.translateExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		proj, err := tr.translateSingleColumn(x.Stmt, sc)
		if err != nil {
			return nil, err
		}
		q := algebra.In
		if x.Negated {
			q = algebra.NotIn
		}
		return algebra.Quant(q, l, proj), nil
	case *sqlparser.QuantCmpExpr:
		return tr.translateQuantCmp(x, sc)
	case *sqlparser.AggExpr:
		// An aggregate of the block's grouping: its argument reads the
		// rows below Γ, and the expression reads Γ's output.
		g := &sc.g
		if !g.active || g.inAgg {
			return nil, fmt.Errorf("translate: aggregate %s outside a select list or HAVING", x)
		}
		g.inAgg = true
		spec, arg, err := tr.translateAgg(x, sc)
		g.inAgg = false
		if err != nil {
			return nil, err
		}
		name := "_agg" + strconv.Itoa(len(g.aggs)+1)
		g.aggs = append(g.aggs, algebra.AggItem{Out: name, Spec: spec, Arg: arg})
		return algebra.Col(name), nil
	default:
		return nil, fmt.Errorf("translate: unsupported expression %T", e)
	}
}

// uniqueOutputs rejects a select list whose output names, each attribute
// under its alias where renames gives one, repeat.
func uniqueOutputs(attrs []string, renames [][2]string) error {
	seen := map[string]bool{}
	for _, a := range attrs {
		if i := slices.IndexFunc(renames, func(rn [2]string) bool { return rn[1] == a }); i >= 0 {
			a = renames[i][0]
		}
		if seen[a] {
			return fmt.Errorf("translate: duplicate output column %q; add aliases", a)
		}
		seen[a] = true
	}
	return nil
}

// translateSingleColumn translates a subquery block that must produce
// exactly one column (IN and quantified-comparison operands).
func (tr *Translator) translateSingleColumn(stmt *sqlparser.SelectStmt, sc *scope) (algebra.Op, error) {
	plan, innerSc, err := tr.nestedBlock(stmt, sc)
	if err != nil {
		return nil, err
	}
	if len(stmt.Items) != 1 || stmt.Star {
		return nil, fmt.Errorf("translate: subquery must select exactly one column")
	}
	colExpr, err := tr.translateExpr(stmt.Items[0].Expr, innerSc)
	if err != nil {
		return nil, err
	}
	col, ok := colExpr.(*algebra.ColRef)
	if !ok || !plan.Schema().Has(col.Name) {
		// Not a bare column of the subquery block — either a computed
		// expression or a correlated reference to an outer column
		// (legal: the item then repeats the outer value per inner row).
		// Both evaluate under χ, where free columns stay resolvable.
		plan = algebra.NewMap(plan, "_in", colExpr)
		col = algebra.Col("_in")
	}
	return algebra.NewProject(plan, []string{col.Name}), nil
}

// translateQuantCmp handles l θ ALL|SOME|ANY (subquery). The equality
// forms map onto IN / NOT IN ("= ANY" ≡ IN, "<> ALL" ≡ NOT IN), the
// ordering forms become AllAny predicates the rewriter converts to
// extremum aggregates (the paper's future-work item (3)).
func (tr *Translator) translateQuantCmp(x *sqlparser.QuantCmpExpr, sc *scope) (algebra.Expr, error) {
	l, err := tr.translateExpr(x.L, sc)
	if err != nil {
		return nil, err
	}
	proj, err := tr.translateSingleColumn(x.Stmt, sc)
	if err != nil {
		return nil, err
	}
	switch {
	case x.Op == "=" && !x.All:
		return algebra.Quant(algebra.In, l, proj), nil
	case x.Op == "<>" && x.All:
		return algebra.Quant(algebra.NotIn, l, proj), nil
	}
	var op types.CompareOp
	switch x.Op {
	case "=":
		op = types.EQ
	case "<>":
		op = types.NE
	case "<":
		op = types.LT
	case "<=":
		op = types.LE
	case ">":
		op = types.GT
	case ">=":
		op = types.GE
	default:
		return nil, fmt.Errorf("translate: unknown quantified operator %q", x.Op)
	}
	return algebra.AllAny(op, x.All, l, proj), nil
}

// translateScalarSubquery builds the canonical nested form: an aggregate
// over the inner block's plan, embedded as an expression (paper §3).
func (tr *Translator) translateScalarSubquery(stmt *sqlparser.SelectStmt, sc *scope) (algebra.Expr, error) {
	if stmt.Star || len(stmt.Items) != 1 {
		return nil, fmt.Errorf("translate: scalar subquery must select a single aggregate")
	}
	ae, ok := stmt.Items[0].Expr.(*sqlparser.AggExpr)
	if !ok {
		return nil, fmt.Errorf("translate: scalar subquery must select an aggregate, got %s", stmt.Items[0].Expr)
	}
	plan, innerSc, err := tr.nestedBlock(stmt, sc)
	if err != nil {
		return nil, err
	}
	spec, arg, err := tr.translateAgg(ae, innerSc)
	if err != nil {
		return nil, err
	}
	return algebra.Subquery(spec, arg, plan), nil
}
