package disqo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"disqo/internal/cache"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/exec"
	"disqo/internal/physical"
	"disqo/internal/sqlparser"
	"disqo/internal/translate"
	"disqo/internal/types"
	"disqo/internal/wal"
)

// This file is the write path. Every mutation of the committed state —
// a typed API call, an Exec statement, a log record replayed by crash
// recovery or applied by a replica — is one write value, built by one
// constructor per record kind, and commit is the only function that
// runs one (DESIGN.md §13).

// write is one mutation: how the WAL records it and how it is applied.
type write struct {
	kind wal.Kind
	// body encodes the record body; it runs only when the write is logged.
	body func() []byte
	// apply performs the mutation under writeMu. It reports the rows
	// affected and the tables it changed, whose cached results commit
	// drops; a statement that changed nothing reports none.
	apply func(db *DB) (rows int, touched []string, err error)
}

// commit is the write protocol. Under writeMu, which makes each write a
// little transaction over a stable pre-image: refuse if the WAL has
// sealed, before anything changes in memory; read the pre-image version;
// apply; drop the cached results over the touched tables, so the writer
// reads its own write; then log. Log-after-commit: the new version is
// already live in memory when its record goes to the WAL, and the caller
// learns of success only once the record is (per the sync policy) on
// disk. An append or sync failure seals the log and is reported here —
// the in-memory commit stands until restart. Readers never take writeMu.
func (db *DB) commit(w write) (int, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writeGuard(); err != nil {
		return 0, err
	}
	pre := db.cat.Version()
	n, touched, err := w.apply(db)
	if err != nil {
		return 0, err
	}
	db.afterWrite(touched...)
	if db.logging() {
		err = db.logLocked(w.kind, pre, w.body())
	}
	return n, err
}

// do is a public write method's body: join the close drain, commit. Log
// replay is admitted as a whole by its caller and calls commit itself,
// so a Close that lands mid-record drains it instead of refusing half
// of an admitted operation.
func (db *DB) do(w write) (int, error) {
	if err := db.begin(); err != nil {
		return 0, err
	}
	defer db.end()
	return db.commit(w)
}

// decodeWrite rebuilds the write a log record describes, through the
// constructors the public methods use.
func decodeWrite(rec wal.Record) (write, error) {
	switch rec.Kind {
	case wal.KindSQL:
		return execSQL(string(rec.Body))
	case wal.KindInsert:
		return decodeInsertRows(rec.Body)
	case wal.KindCreateTable:
		return decodeCreateTable(rec.Body)
	case wal.KindDropTable:
		return dropTable(string(rec.Body)), nil
	case wal.KindLoadRST:
		return decodeLoadRST(rec.Body)
	case wal.KindLoadTPCH:
		return decodeLoadTPCH(rec.Body)
	}
	return write{}, fmt.Errorf("unknown record kind %d", uint8(rec.Kind))
}

// ---------------------------------------------------------------------
// Record kinds: constructor (body encoder + apply step), then decoder.
// KindSQL carries the statement text as written; the typed APIs log
// compact binary bodies instead (a value like 1e-7 must round-trip
// exactly, not via SQL text), and the bulk loaders log their generator
// parameters — datagen is seeded and deterministic, so replaying the
// parameters rebuilds the exact rows without logging megabytes.

// createTable is KindCreateTable: name, then (name, type byte) per column.
func createTable(name string, cols []Column) write {
	return write{
		kind: wal.KindCreateTable,
		body: func() []byte {
			buf := catalog.AppendString(nil, name)
			buf = binary.AppendUvarint(buf, uint64(len(cols)))
			for _, c := range cols {
				buf = catalog.AppendString(buf, c.Name)
				buf = append(buf, byte(c.Type))
			}
			return buf
		},
		apply: func(db *DB) (int, []string, error) {
			_, err := db.cat.Create(name, cols)
			return 0, []string{name}, err
		},
	}
}

func decodeCreateTable(body []byte) (write, error) {
	name, buf, err := catalog.DecodeString(body, "WAL table name")
	if err != nil {
		return write{}, err
	}
	n, buf, err := catalog.DecodeLen(buf, "WAL column count")
	if err != nil {
		return write{}, err
	}
	cols := make([]Column, 0, n)
	for i := 0; i < n; i++ {
		var cname string
		if cname, buf, err = catalog.DecodeString(buf, "WAL column name"); err != nil {
			return write{}, err
		}
		if len(buf) < 1 {
			return write{}, errors.New("disqo: truncated WAL column type")
		}
		cols = append(cols, Column{Name: cname, Type: types.Kind(buf[0])})
		buf = buf[1:]
	}
	return createTable(name, cols), nil
}

// dropTable is KindDropTable: the body is the table name.
func dropTable(name string) write {
	return write{
		kind: wal.KindDropTable,
		body: func() []byte { return []byte(name) },
		apply: func(db *DB) (int, []string, error) {
			return 0, []string{name}, db.cat.Drop(name)
		},
	}
}

// insertRows is KindInsert: table, row count, then (arity, values) per
// row in the catalog's binary value encoding. Either every row commits
// as one new table version, or (on a type error) none do.
func insertRows(table string, rows [][]Value) write {
	return write{
		kind: wal.KindInsert,
		body: func() []byte {
			buf := catalog.AppendString(nil, table)
			buf = binary.AppendUvarint(buf, uint64(len(rows)))
			for _, row := range rows {
				buf = binary.AppendUvarint(buf, uint64(len(row)))
				buf = catalog.AppendRow(buf, row)
			}
			return buf
		},
		apply: func(db *DB) (int, []string, error) {
			return len(rows), []string{table}, db.cat.InsertRows(table, rows...)
		},
	}
}

func decodeInsertRows(body []byte) (write, error) {
	table, buf, err := catalog.DecodeString(body, "WAL table name")
	if err != nil {
		return write{}, err
	}
	n, buf, err := catalog.DecodeLen(buf, "WAL insert row count")
	if err != nil {
		return write{}, err
	}
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		var arity int
		if arity, buf, err = catalog.DecodeLen(buf, "WAL insert row arity"); err != nil {
			return write{}, err
		}
		var row []Value
		if row, buf, err = catalog.DecodeRow(buf, arity); err != nil {
			return write{}, err
		}
		rows = append(rows, row)
	}
	return insertRows(table, rows), nil
}

// loadRST is KindLoadRST: the three scale factors and the seed.
func loadRST(cfg datagen.RSTConfig) write {
	return write{
		kind: wal.KindLoadRST,
		body: func() []byte {
			var buf []byte
			for _, sf := range []float64{cfg.SFR, cfg.SFS, cfg.SFT} {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sf))
			}
			return binary.LittleEndian.AppendUint64(buf, cfg.Seed)
		},
		apply: func(db *DB) (int, []string, error) {
			return 0, []string{"r", "s", "t"}, datagen.LoadRST(db.cat, cfg)
		},
	}
}

func decodeLoadRST(body []byte) (write, error) {
	if len(body) != 32 {
		return write{}, errors.New("disqo: bad WAL load-rst body")
	}
	f := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(body[off:])) }
	return loadRST(datagen.RSTConfig{SFR: f(0), SFS: f(8), SFT: f(16), Seed: binary.LittleEndian.Uint64(body[24:])}), nil
}

// loadTPCH is KindLoadTPCH: scale factor, seed, then the table names
// (none: the five tables Query 2d touches).
func loadTPCH(cfg datagen.TPCHConfig) write {
	return write{
		kind: wal.KindLoadTPCH,
		body: func() []byte {
			buf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(cfg.SF))
			buf = binary.LittleEndian.AppendUint64(buf, cfg.Seed)
			buf = binary.AppendUvarint(buf, uint64(len(cfg.Tables)))
			for _, t := range cfg.Tables {
				buf = catalog.AppendString(buf, t)
			}
			return buf
		},
		apply: func(db *DB) (int, []string, error) {
			touched := cfg.Tables
			if len(touched) == 0 {
				touched = datagen.TPCHQuery2dTables
			}
			return 0, touched, datagen.LoadTPCH(db.cat, cfg)
		},
	}
}

func decodeLoadTPCH(body []byte) (write, error) {
	if len(body) < 16 {
		return write{}, errors.New("disqo: bad WAL load-tpch body")
	}
	cfg := datagen.TPCHConfig{
		SF:   math.Float64frombits(binary.LittleEndian.Uint64(body)),
		Seed: binary.LittleEndian.Uint64(body[8:]),
	}
	n, buf, err := catalog.DecodeLen(body[16:], "WAL load-tpch table count")
	if err != nil {
		return write{}, err
	}
	for i := 0; i < n; i++ {
		var t string
		if t, buf, err = catalog.DecodeString(buf, "WAL table name"); err != nil {
			return write{}, err
		}
		cfg.Tables = append(cfg.Tables, t)
	}
	return loadTPCH(cfg), nil
}

// execSQL is KindSQL: one DDL or DML statement, logged as written. The
// text is parsed here, before commit takes the write lock.
func execSQL(sql string) (write, error) {
	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return write{}, err
	}
	return write{
		kind:  wal.KindSQL,
		body:  func() []byte { return []byte(sql) },
		apply: func(db *DB) (int, []string, error) { return db.applyStmt(stmt, sql) },
	}, nil
}

// ---------------------------------------------------------------------
// Statement application.

// applyStmt is execSQL's apply step: it dispatches one parsed statement
// under writeMu. The table statements are the typed writes' apply steps.
func (db *DB) applyStmt(stmt sqlparser.Statement, sql string) (int, []string, error) {
	switch x := stmt.(type) {
	case *sqlparser.CreateTableStmt:
		cols := make([]Column, len(x.Columns))
		for i, c := range x.Columns {
			var kind types.Kind
			switch c.Type {
			case "INTEGER":
				kind = types.KindInt
			case "DOUBLE":
				kind = types.KindFloat
			case "VARCHAR":
				kind = types.KindString
			case "BOOLEAN":
				kind = types.KindBool
			default:
				return 0, nil, fmt.Errorf("disqo: unknown column type %q", c.Type)
			}
			cols[i] = Column{Name: c.Name, Type: kind}
		}
		return createTable(x.Name, cols).apply(db)
	case *sqlparser.DropTableStmt:
		return dropTable(x.Name).apply(db)
	case *sqlparser.InsertStmt:
		rows := make([][]Value, len(x.Rows))
		for r, row := range x.Rows {
			vals := make([]Value, len(row))
			for i, lit := range row {
				switch v := lit.(type) {
				case *sqlparser.IntLit:
					vals[i] = Int(v.Val)
				case *sqlparser.FloatLit:
					vals[i] = Float(v.Val)
				case *sqlparser.StringLit:
					vals[i] = String(v.Val)
				case *sqlparser.BoolLit:
					vals[i] = Bool(v.Val)
				case *sqlparser.NullLit:
					vals[i] = Null()
				default:
					return 0, nil, fmt.Errorf("disqo: INSERT values must be literals, got %s", lit)
				}
			}
			rows[r] = vals
		}
		return insertRows(x.Table, rows).apply(db)
	case *sqlparser.CreateViewStmt:
		v, err := catalog.NewView(sql)
		if err != nil {
			return 0, nil, err
		}
		// Validate the body now so a broken view fails at definition time.
		if _, err := translate.New(db.cat).Translate(v.Body); err != nil {
			return 0, nil, fmt.Errorf("disqo: invalid view body: %w", err)
		}
		return 0, nil, db.cat.CreateView(v)
	case *sqlparser.DropViewStmt:
		return 0, nil, db.cat.DropView(x.Name)
	case *sqlparser.DeleteStmt:
		return db.applyDelete(x)
	case *sqlparser.UpdateStmt:
		return db.applyUpdate(x)
	case *sqlparser.SelectStmt:
		return 0, nil, fmt.Errorf("disqo: use Query for SELECT statements")
	default:
		return 0, nil, fmt.Errorf("disqo: unsupported statement %T", stmt)
	}
}

// matchingRows evaluates a WHERE predicate over one table by planning
// the equivalent SELECT as a query's would be (so subqueries in DML
// predicates are unnested too) and executing it — ungated, unobserved
// and uncached: it is a step of the write statement holding writeMu —
// and returns the set of matching tuples. It reads src — the pre-image
// snapshot of the statement being executed.
func (db *DB) matchingRows(src catalog.Reader, table string, where sqlparser.Expr) (*types.RowIndex, error) {
	sel := &sqlparser.SelectStmt{
		Star:  true,
		From:  []sqlparser.TableRef{{Table: table}},
		Where: where,
	}
	cfg := db.newQueryConfig()
	pp, _, err := db.planStmt(src, sel, cache.PlanKey{}, cfg)
	if err != nil {
		return nil, err
	}
	ex, rel, err := db.execute(src, cfg, pp)
	defer ex.Close()
	if err != nil {
		return nil, err
	}
	out := types.NewRowIndex(rel.Tuples, nil, false, rel.Cardinality())
	for i := range rel.Tuples {
		out.FindOrAdd(int32(i))
	}
	return out, nil
}

// applyDelete removes the rows satisfying the predicate. Matching is
// value-based (the relation is a bag): identical duplicates live or die
// together, which coincides with SQL's semantics for a value-based
// predicate. The kept row set is computed against the stable pre-image
// and committed as one new table version.
func (db *DB) applyDelete(x *sqlparser.DeleteStmt) (int, []string, error) {
	snap := db.cat.Snapshot()
	tbl, err := snap.Lookup(x.Table)
	if err != nil {
		return 0, nil, err
	}
	if x.Where == nil {
		return tbl.Rel.Cardinality(), []string{x.Table}, db.cat.ReplaceRows(x.Table, nil)
	}
	matching, err := db.matchingRows(snap, x.Table, x.Where)
	if err != nil {
		return 0, nil, err
	}
	kept := make([][]Value, 0, len(tbl.Rel.Tuples))
	for _, row := range tbl.Rel.Tuples {
		if matching.First(row, nil) < 0 {
			kept = append(kept, row)
		}
	}
	deleted := len(tbl.Rel.Tuples) - len(kept)
	if deleted == 0 {
		return 0, nil, nil
	}
	return deleted, []string{x.Table}, db.cat.ReplaceRows(x.Table, kept)
}

// applyUpdate rewrites the rows satisfying the predicate, evaluating SET
// expressions against the pre-update row (standard SQL semantics). Each
// is bound once, with the blocks nested in it, over the table's rows and
// evaluated on one frame moved from row to row. The new row set is
// computed in full against the stable pre-image before the single
// atomic commit, so concurrent snapshot readers see either every change
// or none.
func (db *DB) applyUpdate(x *sqlparser.UpdateStmt) (int, []string, error) {
	snap := db.cat.Snapshot()
	tbl, err := snap.Lookup(x.Table)
	if err != nil {
		return 0, nil, err
	}
	// Resolve SET targets and translate value expressions in the table's
	// scope (subqueries allowed; they evaluate canonically per row).
	ex := exec.New(snap, db.execOptions(db.newQueryConfig()))
	defer ex.Close()
	colIdx := make([]int, len(x.Sets))
	valExprs := make([]*physical.Bound, len(x.Sets))
	for i, a := range x.Sets {
		idx := -1
		for j, c := range tbl.Columns {
			if strings.EqualFold(c.Name, a.Column) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return 0, nil, fmt.Errorf("disqo: no column %q in %s", a.Column, x.Table)
		}
		colIdx[i] = idx
		ve, err := translate.New(snap).TranslateTableExpr(x.Table, a.Value)
		if err != nil {
			return 0, nil, err
		}
		if valExprs[i], err = ex.BindExpr(ve, tbl.Rel.Schema); err != nil {
			return 0, nil, err
		}
	}

	var matching *types.RowIndex
	if x.Where != nil {
		matching, err = db.matchingRows(snap, x.Table, x.Where)
		if err != nil {
			return 0, nil, err
		}
	}
	updated := 0
	newRows := make([][]Value, len(tbl.Rel.Tuples))
	env := exec.NewFrame(nil)
	for i, row := range tbl.Rel.Tuples {
		if x.Where != nil && matching.First(row, nil) < 0 {
			newRows[i] = row
			continue
		}
		env.Set(row)
		next := append([]Value(nil), row...)
		for k, ve := range valExprs {
			v, err := ex.EvalExpr(ve, env)
			if err != nil {
				return 0, nil, err // nothing committed: the statement aborts whole
			}
			next[colIdx[k]] = v
		}
		newRows[i] = next
		updated++
	}
	if updated == 0 {
		return 0, nil, nil
	}
	return updated, []string{x.Table}, db.cat.ReplaceRows(x.Table, newRows)
}
