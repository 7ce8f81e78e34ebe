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
	// expanding guards against recursive view definitions.
	expanding map[string]bool
	est       *stats.Estimator // orders joins; see estimator
}

// New returns a Translator over one catalog state (live catalog or
// pinned snapshot): table and view names resolve against the same
// commit, a FROM reference to a view expanding like a derived table
// over the view's body.
func New(cat catalog.Reader) *Translator {
	return &Translator{cat: cat, used: make(map[string]bool), expanding: make(map[string]bool)}
}

// rangeVar is one FROM-clause binding in a scope: a base table or a
// derived table (subquery in FROM).
type rangeVar struct {
	name    string   // the SQL-visible binding (alias or table name)
	qual    string   // the unique qualifier used in attribute names
	cols    []string // lower-case column names
	table   *catalog.Table
	derived algebra.Op // non-nil for derived tables; attrs are qual.col
}

// scope is a block's name-resolution context, chained to the enclosing
// block for correlation.
type scope struct {
	parent *scope
	vars   []*rangeVar
}

// attrOf builds the executor attribute name for a var's column.
func attrOf(v *rangeVar, col string) string { return v.qual + "." + strings.ToLower(col) }

// hasColumn reports whether the binding exposes the column.
func hasColumn(v *rangeVar, col string) bool {
	for _, c := range v.cols {
		if strings.EqualFold(c, col) {
			return true
		}
	}
	return false
}

// resolve maps an identifier to a fully-qualified attribute name,
// searching the current block first, then enclosing blocks (correlation).
func (sc *scope) resolve(id *sqlparser.Ident) (string, error) {
	for s := sc; s != nil; s = s.parent {
		if id.Qualifier != "" {
			for _, v := range s.vars {
				if v.name == id.Qualifier {
					if !hasColumn(v, id.Name) {
						return "", fmt.Errorf("translate: no column %q in %s", id.Name, v.name)
					}
					return attrOf(v, id.Name), nil
				}
			}
			continue
		}
		var found *rangeVar
		for _, v := range s.vars {
			if hasColumn(v, id.Name) {
				if found != nil {
					return "", fmt.Errorf("translate: ambiguous column %q", id.Name)
				}
				found = v
			}
		}
		if found != nil {
			return attrOf(found, id.Name), nil
		}
	}
	return "", fmt.Errorf("translate: unknown column %q", id)
}

// localQuals returns the set of qualifiers introduced by this scope (not
// parents) — used to distinguish local from correlated references.
func (sc *scope) localQuals() map[string]bool {
	out := make(map[string]bool, len(sc.vars))
	for _, v := range sc.vars {
		out[v.qual] = true
	}
	return out
}

// TranslateTableExpr resolves an expression against a single table's
// scope — the contract DML statements need for SET values and
// per-row evaluation. Subqueries inside the expression are translated as
// usual (correlated to the table's row).
func (tr *Translator) TranslateTableExpr(table string, e sqlparser.Expr) (algebra.Expr, error) {
	sel := &sqlparser.SelectStmt{Star: true, From: []sqlparser.TableRef{{Table: table}}}
	_, sc, err := tr.translateBlock(sel, nil)
	if err != nil {
		return nil, err
	}
	return tr.translateExpr(e, sc)
}

// Translate converts a full statement into a canonical plan.
func (tr *Translator) Translate(stmt *sqlparser.SelectStmt) (algebra.Op, error) {
	plan, sc, err := tr.translateBlock(stmt, nil)
	if err != nil {
		return nil, err
	}
	return tr.finishTopLevel(stmt, plan, sc)
}

// finishTopLevel applies select list, GROUP BY/HAVING, DISTINCT and
// ORDER BY on a block plan.
func (tr *Translator) finishTopLevel(stmt *sqlparser.SelectStmt, plan algebra.Op, sc *scope) (algebra.Op, error) {
	if len(stmt.GroupBy) > 0 {
		return tr.finishGrouped(stmt, plan, sc)
	}
	if stmt.Having != nil {
		return nil, fmt.Errorf("translate: HAVING requires GROUP BY")
	}
	var outAttrs []string
	var renames [][2]string
	if stmt.Star {
		// FROM order, whatever order the join tree put the columns in.
		for _, v := range sc.vars {
			for _, c := range v.cols {
				outAttrs = append(outAttrs, attrOf(v, c))
			}
		}
	} else {
		// Check for a global aggregate query: all items aggregates.
		allAgg, anyAgg := true, false
		for _, it := range stmt.Items {
			if _, ok := it.Expr.(*sqlparser.AggExpr); ok {
				anyAgg = true
			} else {
				allAgg = false
			}
		}
		if anyAgg && !allAgg {
			return nil, fmt.Errorf("translate: mixing aggregates and plain columns needs GROUP BY, which this dialect omits")
		}
		if anyAgg {
			return tr.finishGlobalAgg(stmt, plan, sc)
		}
		for i, it := range stmt.Items {
			name := it.Alias
			switch e := it.Expr.(type) {
			case *sqlparser.Ident:
				attr, err := sc.resolve(e)
				if err != nil {
					return nil, err
				}
				outAttrs = append(outAttrs, attr)
				if name != "" && name != attr {
					renames = append(renames, [2]string{name, attr})
				}
			default:
				if name == "" {
					name = fmt.Sprintf("_col%d", i+1)
				}
				expr, err := tr.translateExpr(it.Expr, sc)
				if err != nil {
					return nil, err
				}
				plan = algebra.NewMap(plan, name, expr)
				outAttrs = append(outAttrs, name)
			}
		}
	}
	if err := uniqueOutputs(outAttrs); err != nil {
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
			id, ok := o.Expr.(*sqlparser.Ident)
			if !ok {
				return nil, fmt.Errorf("translate: ORDER BY supports columns only, got %s", o.Expr)
			}
			attr, err := sc.resolve(id)
			if err != nil {
				return nil, err
			}
			if !result.Schema().Has(attr) {
				// The key may have been renamed to its alias.
				renamed := false
				for _, rn := range renames {
					if rn[1] == attr {
						attr = rn[0]
						renamed = true
						break
					}
				}
				if !renamed {
					return nil, fmt.Errorf("translate: ORDER BY column %s must appear in the select list", id)
				}
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

// finishGlobalAgg handles a top-level aggregation query (no GROUP BY in
// the dialect, so grouping is global): SELECT MIN(x), COUNT(*) FROM ...
func (tr *Translator) finishGlobalAgg(stmt *sqlparser.SelectStmt, plan algebra.Op, sc *scope) (algebra.Op, error) {
	items := make([]algebra.AggItem, len(stmt.Items))
	outs := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		ae := it.Expr.(*sqlparser.AggExpr)
		spec, arg, err := tr.translateAgg(ae, sc)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = fmt.Sprintf("_agg%d", i+1)
		}
		items[i] = algebra.AggItem{Out: name, Spec: spec, Arg: arg}
		outs[i] = name
	}
	var result algebra.Op = algebra.NewGroupBy(plan, nil, items, true)
	result = algebra.NewProject(result, outs)
	if len(stmt.OrderBy) > 0 {
		return nil, fmt.Errorf("translate: ORDER BY with global aggregates is not supported")
	}
	return result, nil
}

// finishGrouped builds the GROUP BY pipeline: Γ over the block plan with
// one aggregate per AggExpr in the select list and HAVING clause, a
// selection for HAVING, and projection/renaming to the declared outputs.
func (tr *Translator) finishGrouped(stmt *sqlparser.SelectStmt, plan algebra.Op, sc *scope) (algebra.Op, error) {
	if stmt.Star {
		return nil, fmt.Errorf("translate: SELECT * is not valid with GROUP BY")
	}
	// Resolve the grouping attributes.
	groupAttrs := make([]string, 0, len(stmt.GroupBy))
	grouped := map[string]bool{}
	for _, g := range stmt.GroupBy {
		id, ok := g.(*sqlparser.Ident)
		if !ok {
			return nil, fmt.Errorf("translate: GROUP BY supports columns only, got %s", g)
		}
		attr, err := sc.resolve(id)
		if err != nil {
			return nil, err
		}
		if !grouped[attr] {
			grouped[attr] = true
			groupAttrs = append(groupAttrs, attr)
		}
	}

	var items []algebra.AggItem
	aggCounter := 0
	addAgg := func(ae *sqlparser.AggExpr) (string, error) {
		spec, arg, err := tr.translateAgg(ae, sc)
		if err != nil {
			return "", err
		}
		aggCounter++
		name := fmt.Sprintf("_agg%d", aggCounter)
		items = append(items, algebra.AggItem{Out: name, Spec: spec, Arg: arg})
		return name, nil
	}

	// Select list: grouping columns or aggregates.
	var outAttrs []string
	var renames [][2]string
	for _, it := range stmt.Items {
		switch e := it.Expr.(type) {
		case *sqlparser.Ident:
			attr, err := sc.resolve(e)
			if err != nil {
				return nil, err
			}
			if !grouped[attr] {
				return nil, fmt.Errorf("translate: column %s must appear in GROUP BY or inside an aggregate", e)
			}
			outAttrs = append(outAttrs, attr)
			if it.Alias != "" && it.Alias != attr {
				renames = append(renames, [2]string{it.Alias, attr})
			}
		case *sqlparser.AggExpr:
			name, err := addAgg(e)
			if err != nil {
				return nil, err
			}
			outAttrs = append(outAttrs, name)
			if it.Alias != "" {
				renames = append(renames, [2]string{it.Alias, name})
			}
		default:
			return nil, fmt.Errorf("translate: GROUP BY select items must be grouping columns or aggregates, got %s", it.Expr)
		}
	}

	// HAVING: aggregates become references to Γ outputs; plain columns
	// must be grouping attributes. Nested subqueries are translated as
	// usual and may be unnested downstream.
	var having algebra.Expr
	if stmt.Having != nil {
		var err error
		having, err = tr.translateHaving(stmt.Having, sc, grouped, addAgg)
		if err != nil {
			return nil, err
		}
	}

	if err := uniqueOutputs(outAttrs); err != nil {
		return nil, err
	}
	var result algebra.Op = algebra.NewGroupBy(plan, groupAttrs, items, false)
	if having != nil {
		result = algebra.NewSelect(result, having)
	}
	result = algebra.NewProject(result, outAttrs)
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
			id, ok := o.Expr.(*sqlparser.Ident)
			if !ok {
				return nil, fmt.Errorf("translate: ORDER BY supports columns only, got %s", o.Expr)
			}
			attr := ""
			if id.Qualifier == "" && result.Schema().Has(id.Name) {
				attr = id.Name // output alias
			} else {
				resolved, err := sc.resolve(id)
				if err != nil {
					return nil, err
				}
				attr = resolved
			}
			if !result.Schema().Has(attr) {
				return nil, fmt.Errorf("translate: ORDER BY column %s must appear in the select list", id)
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

// translateHaving rewrites a HAVING predicate against the grouped schema:
// aggregate calls are routed through addAgg (extending the Γ operator)
// and replaced by their output attribute.
func (tr *Translator) translateHaving(e sqlparser.Expr, sc *scope,
	grouped map[string]bool, addAgg func(*sqlparser.AggExpr) (string, error)) (algebra.Expr, error) {
	switch x := e.(type) {
	case *sqlparser.AggExpr:
		name, err := addAgg(x)
		if err != nil {
			return nil, err
		}
		return algebra.Col(name), nil
	case *sqlparser.Ident:
		attr, err := sc.resolve(x)
		if err != nil {
			return nil, err
		}
		if !grouped[attr] {
			return nil, fmt.Errorf("translate: HAVING column %s must appear in GROUP BY or inside an aggregate", x)
		}
		return algebra.Col(attr), nil
	case *sqlparser.BinaryExpr:
		l, err := tr.translateHaving(x.L, sc, grouped, addAgg)
		if err != nil {
			return nil, err
		}
		r, err := tr.translateHaving(x.R, sc, grouped, addAgg)
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
			return nil, fmt.Errorf("translate: unknown operator %q in HAVING", x.Op)
		}
	case *sqlparser.NotExpr:
		inner, err := tr.translateHaving(x.E, sc, grouped, addAgg)
		if err != nil {
			return nil, err
		}
		return algebra.Not(inner), nil
	case *sqlparser.IsNullExpr:
		inner, err := tr.translateHaving(x.E, sc, grouped, addAgg)
		if err != nil {
			return nil, err
		}
		var out algebra.Expr = algebra.IsNull(inner)
		if x.Negated {
			out = algebra.Not(out)
		}
		return out, nil
	default:
		// Literals and anything without aggregates or grouped columns
		// fall back to the ordinary translation.
		return tr.translateExpr(e, sc)
	}
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
	sc := &scope{parent: parent}
	seen := map[string]bool{}
	for _, ref := range stmt.From {
		name := strings.ToLower(ref.Binding())
		if seen[name] {
			return nil, nil, fmt.Errorf("translate: duplicate range variable %q", name)
		}
		seen[name] = true
		qual := name
		for n := 2; tr.used[qual]; n++ {
			qual = fmt.Sprintf("%s#%d", name, n)
		}
		tr.used[qual] = true
		rv := &rangeVar{name: name, qual: qual}
		viewName := ""
		if ref.Subquery == nil {
			// View reference? Expand it like a derived table.
			if v, isView := tr.cat.View(ref.Table); isView {
				if tr.expanding[v.Name] {
					return nil, nil, fmt.Errorf("translate: recursive view %q", ref.Table)
				}
				viewName, ref.Subquery = v.Name, v.Body
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
				rv.cols = append(rv.cols, col)
				pairs = append(pairs, [2]string{qual + "." + col, attr})
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
			for _, c := range tbl.Columns {
				rv.cols = append(rv.cols, strings.ToLower(c.Name))
			}
		}
		sc.vars = append(sc.vars, rv)
	}

	// Translate the WHERE predicate with full scope so subqueries and
	// correlation resolve; then distribute subquery-free local conjuncts
	// into the join tree.
	var conjuncts []algebra.Expr
	if stmt.Where != nil {
		pred, err := tr.translateExpr(stmt.Where, sc)
		if err != nil {
			return nil, nil, err
		}
		conjuncts = algebra.SplitConjuncts(pred)
	}
	plan, remaining, err := tr.buildJoinTree(sc, conjuncts)
	if err != nil {
		return nil, nil, err
	}
	if len(remaining) > 0 {
		plan = algebra.NewSelect(plan, algebra.And(remaining...))
	}
	return plan, sc, nil
}

// predInfo tracks which local range variables a conjunct touches and
// whether it is eligible for pushdown.
type predInfo struct {
	expr     algebra.Expr
	quals    map[string]bool // local vars referenced
	pushable bool            // no subqueries and at least one local var
	applied  bool
}

// buildJoinTree composes the block's scans into a join tree, pushing
// single-variable conjuncts into per-scan selections and multi-variable
// conjuncts into the join that first covers them. Conjuncts containing
// subqueries (or touching no local variable) are returned for the
// block-level selection — that placement is what makes the translation
// "canonical": nested blocks stay nested.
//
// The join order is greedy operator ordering (GOO; Fegaras, DEXA 1998):
// the access paths start as one component each, and while more than one
// is left, the pair joined by an unapplied conjunct with the smallest
// estimated result, |a|·|b|·Π sel(the conjuncts spanning a and b), is
// merged; only when no pair is joined are the two whose cross product
// is smallest merged. Ties go to FROM order. Each join takes its larger
// estimated input as L and its smaller one as R, the side a hash join
// builds on.
func (tr *Translator) buildJoinTree(sc *scope, conjuncts []algebra.Expr) (algebra.Op, []algebra.Expr, error) {
	local := sc.localQuals()
	infos := make([]*predInfo, len(conjuncts))
	for i, c := range conjuncts {
		quals := map[string]bool{}
		allLocal := true
		for _, col := range c.Columns(nil) {
			if q, _, ok := strings.Cut(col, "."); ok && local[q] {
				quals[q] = true
			} else {
				// References an enclosing block (correlation) or a
				// synthetic attribute: must stay at block level so the
				// rewriter sees it in canonical position.
				allLocal = false
			}
		}
		infos[i] = &predInfo{
			expr:     c,
			quals:    quals,
			pushable: !algebra.HasSubquery(c) && len(quals) > 0 && allLocal,
		}
	}

	// Per-variable access paths (scans or derived plans) with
	// single-variable conjuncts applied: the components, in FROM order;
	// comp maps a variable to the index of the component holding it.
	comps := make([]algebra.Op, len(sc.vars))
	comp := make(map[string]int, len(sc.vars))
	for i, v := range sc.vars {
		var op algebra.Op
		if v.derived != nil {
			op = v.derived
		} else {
			attrs := make([]string, len(v.cols))
			for j, c := range v.cols {
				attrs[j] = attrOf(v, c)
			}
			op = algebra.NewScan(v.table.Name, v.qual, storage.NewSchema(attrs...))
		}
		var sels []algebra.Expr
		for _, pi := range infos {
			if pi.pushable && !pi.applied && len(pi.quals) == 1 && pi.quals[v.qual] {
				sels = append(sels, pi.expr)
				pi.applied = true
			}
		}
		if len(sels) > 0 {
			op = algebra.NewSelect(op, algebra.And(sels...))
		}
		comps[i] = op
		comp[v.qual] = i
	}

	// spans reports whether an unapplied pushable conjunct lies within
	// components a and b, and so spans them.
	spans := func(pi *predInfo, a, b int) bool {
		if !pi.pushable || pi.applied {
			return false
		}
		for q := range pi.quals {
			if c := comp[q]; c != a && c != b {
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
				for _, pi := range infos {
					if spans(pi, a, b) {
						size *= est.JoinSelectivity(pi.expr, comps[a], comps[b])
						joined = true
					}
				}
				if bestA < 0 || joined && !bestJoined || joined == bestJoined && size < bestSize {
					bestA, bestB, bestJoined, bestSize = a, b, joined, size
				}
			}
		}
		var preds []algebra.Expr
		for _, pi := range infos {
			if spans(pi, bestA, bestB) {
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
		for q, c := range comp {
			if c == bestB {
				comp[q] = bestA
			}
		}
	}
	// The last merge covered every variable, so every pushable conjunct
	// went into a scan or a join; what is left stays at block level.
	var remaining []algebra.Expr
	for _, pi := range infos {
		if !pi.applied {
			remaining = append(remaining, pi.expr)
		}
	}
	return comps[0], remaining, nil
}

// estimator returns the statement's estimator, made on first use: a
// block of one range variable orders nothing.
func (tr *Translator) estimator() *stats.Estimator {
	if tr.est == nil {
		tr.est = stats.New(tr.cat)
	}
	return tr.est
}

// translateExpr converts a SQL expression into an algebra expression,
// recursively translating subqueries into embedded plans.
func (tr *Translator) translateExpr(e sqlparser.Expr, sc *scope) (algebra.Expr, error) {
	switch x := e.(type) {
	case *sqlparser.Ident:
		attr, err := sc.resolve(x)
		if err != nil {
			return nil, err
		}
		return algebra.Col(attr), nil
	case *sqlparser.IntLit:
		return algebra.ConstInt(x.Val), nil
	case *sqlparser.FloatLit:
		return algebra.Const(types.NewFloat(x.Val)), nil
	case *sqlparser.StringLit:
		return algebra.Const(types.NewString(x.Val)), nil
	case *sqlparser.BoolLit:
		return algebra.Const(types.NewBool(x.Val)), nil
	case *sqlparser.NullLit:
		return algebra.Const(types.Null()), nil
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
		plan, _, err := tr.translateBlock(x.Stmt, sc)
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
		return nil, fmt.Errorf("translate: aggregate %s outside a select list", x)
	default:
		return nil, fmt.Errorf("translate: unsupported expression %T", e)
	}
}

// uniqueOutputs rejects select lists projecting the same attribute twice
// without distinguishing aliases.
func uniqueOutputs(attrs []string) error {
	seen := map[string]bool{}
	for _, a := range attrs {
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
	plan, innerSc, err := tr.translateBlock(stmt, sc)
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
	if len(stmt.OrderBy) > 0 {
		return nil, fmt.Errorf("translate: ORDER BY inside a scalar subquery is meaningless")
	}
	plan, innerSc, err := tr.translateBlock(stmt, sc)
	if err != nil {
		return nil, err
	}
	spec, arg, err := tr.translateAgg(ae, innerSc)
	if err != nil {
		return nil, err
	}
	return algebra.Subquery(spec, arg, plan), nil
}
