package disqo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"disqo/internal/cache"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/sqlparser"
	"disqo/internal/translate"
	"disqo/internal/types"
	"disqo/internal/wal"
)

// This file is the write path. Every mutation of the committed state —
// a typed API call, an Exec statement, a log record replayed by crash
// recovery — is one write value, built by one
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
			kind := types.KindInt // a column's kind is named as it prints
			for kind <= types.KindBool && kind.String() != c.Type {
				kind++
			}
			if kind > types.KindBool {
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
				v, ok := translate.Literal(lit)
				if !ok {
					return 0, nil, fmt.Errorf("disqo: INSERT values must be literals, got %s", lit)
				}
				vals[i] = v
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

// dmlQuery is the query a DELETE or UPDATE runs over its table: the
// table's columns (*), then each SET value under an alias no column's
// output name can be (a column's is qualified), over the rows the WHERE
// predicate keeps.
func dmlQuery(tbl *catalog.Table, where sqlparser.Expr, sets []sqlparser.Assignment) *sqlparser.SelectStmt {
	items := make([]sqlparser.SelectItem, len(sets))
	for i, a := range sets {
		items[i] = sqlparser.SelectItem{Expr: a.Value, Alias: "_set" + strconv.Itoa(i+1)}
	}
	return &sqlparser.SelectStmt{Star: true, Items: items, From: []sqlparser.TableRef{{Table: tbl.Name}}, Where: where}
}

// dmlRows runs a DELETE's or UPDATE's query (dmlQuery) as a query's is
// run — planned, so the blocks nested in its predicate and SET values
// are unnested, and executed ungated, unobserved and uncached: it is a
// step of the write statement holding writeMu — against src, the
// statement's pre-image snapshot. It returns the result rows indexed on
// the table's columns, by value: a table row matches the result rows
// identical to it. The caller releases the index after its last use.
func (db *DB) dmlRows(src catalog.Reader, tbl *catalog.Table, where sqlparser.Expr, sets []sqlparser.Assignment) (*types.RowIndex, error) {
	cfg := db.newQueryConfig()
	pp, _, err := db.planStmt(src, dmlQuery(tbl, where, sets), cache.PlanKey{}, cfg)
	if err != nil {
		return nil, err
	}
	ex, rel, err := db.execute(src, cfg, pp)
	defer ex.Close()
	if err != nil {
		return nil, err
	}
	key := make([]int, len(tbl.Columns))
	for i := range key {
		key[i] = i
	}
	out := types.NewRowIndex(rel.Tuples, key, false, rel.Cardinality())
	for i := range rel.Tuples {
		out.FindOrAdd(int32(i))
	}
	return out, nil
}

// applyDelete removes the rows satisfying the predicate. Matching is
// value-based (the relation is a bag): identical duplicates live or die
// together, which coincides with SQL's semantics for a value-based
// predicate. The kept row set is computed against the stable pre-image
// and committed as one new table version. When the kept rows are one
// run — a DELETE of the rows last inserted — the commit is that run
// (catalog.KeepRun), sharing the pre-image's rows and columns.
func (db *DB) applyDelete(x *sqlparser.DeleteStmt) (int, []string, error) {
	snap := db.cat.Snapshot()
	tbl, err := snap.Lookup(x.Table)
	if err != nil {
		return 0, nil, err
	}
	if x.Where == nil {
		return tbl.Rel.Cardinality(), []string{x.Table}, db.cat.ReplaceRows(x.Table, nil)
	}
	matching, err := db.dmlRows(snap, tbl, x.Where, nil)
	if err != nil {
		return 0, nil, err
	}
	// The kept rows are the run [lo, hi) until a second run begins; then
	// they are listed.
	rows := tbl.Rel.Tuples
	lo, hi, deleted := 0, 0, 0
	var kept [][]Value
	for i, row := range rows {
		switch {
		case matching.First(row, nil) >= 0:
			deleted++
		case kept != nil:
			kept = append(kept, row)
		case lo == hi:
			lo, hi = i, i+1
		case hi == i:
			hi++
		default:
			kept = append(make([][]Value, 0, len(rows)-deleted), rows[lo:hi]...)
			kept = append(kept, row)
		}
	}
	matching.Release()
	switch {
	case deleted == 0:
		return 0, nil, nil
	case kept == nil && lo < hi:
		err = db.cat.KeepRun(tbl, lo, hi)
	default:
		err = db.cat.ReplaceRows(x.Table, kept)
	}
	return deleted, []string{x.Table}, err
}

// applyUpdate rewrites the rows satisfying the predicate. The
// statement's query (dmlRows) computes each SET value against the
// pre-update row (standard SQL semantics); a column set twice takes the
// last. Matching is value-based, as for DELETE. The new row set is
// computed in full against the stable pre-image before the single
// atomic commit, so concurrent snapshot readers see either every change
// or none; a changed row that does not fit the table's column types
// fails the statement whole. The new version shares every column the
// statement does not set (catalog.UpdateRows).
func (db *DB) applyUpdate(x *sqlparser.UpdateStmt) (int, []string, error) {
	snap := db.cat.Snapshot()
	tbl, err := snap.Lookup(x.Table)
	if err != nil {
		return 0, nil, err
	}
	targets := make([]int, len(x.Sets))
	for i, a := range x.Sets {
		targets[i] = slices.IndexFunc(tbl.Columns, func(c Column) bool { return strings.EqualFold(c.Name, a.Column) })
		if targets[i] < 0 {
			return 0, nil, fmt.Errorf("disqo: no column %q in %s", a.Column, x.Table)
		}
	}
	matching, err := db.dmlRows(snap, tbl, x.Where, x.Sets)
	var grouped *translate.GroupedStarError
	if errors.As(err, &grouped) && grouped.Item >= 0 {
		// The statement's query groups only when a SET value aggregates.
		a := x.Sets[grouped.Item]
		return 0, nil, fmt.Errorf("disqo: UPDATE %s SET %s = %s: a SET value cannot be an aggregate", x.Table, a.Column, a.Value)
	}
	if err != nil {
		return 0, nil, err
	}
	// ents[i] is the result row that table row i matches, -1 for none; the
	// changed rows are cut from one slab. Matched rows stay as they are:
	// the index compares later duplicates against them.
	rows := tbl.Rel.Tuples
	ents, updated := make([]int32, len(rows)), 0
	for i, row := range rows {
		if ents[i] = matching.First(row, nil); ents[i] >= 0 {
			updated++
		}
	}
	if updated == 0 {
		matching.Release()
		return 0, nil, nil
	}
	width := len(tbl.Columns)
	slab, newRows := make([]Value, 0, updated*width), make([][]Value, len(rows))
	for i, row := range rows {
		if ents[i] < 0 {
			newRows[i] = row
			continue
		}
		values := matching.Row(ents[i])[width:]
		slab = append(slab, row...)
		next := slab[len(slab)-width : len(slab) : len(slab)]
		for k, c := range targets {
			next[c] = values[k]
		}
		if err := tbl.CheckRow(next); err != nil {
			return 0, nil, err
		}
		newRows[i] = next
	}
	matching.Release()
	return updated, []string{x.Table}, db.cat.UpdateRows(tbl, newRows, targets)
}
