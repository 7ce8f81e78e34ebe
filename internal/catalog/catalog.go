// Package catalog holds the database's committed state: table
// definitions with their rows, view definitions, and the per-column
// statistics the cost model consumes (Table.ColumnStats: distinct count
// and numeric range, computed for one column on first use and cached
// with the table version, as is its columnar view, Table.Batch, unless
// the commit that made the version carried them from its predecessor).
// The translator, estimator and executor resolve names against a
// Catalog (or one of its Snapshots).
//
// A snapshot carries two counters. Version advances on every commit and
// names the data; SchemaEpoch advances only on DDL (Create, Drop,
// CreateView, DropView) and Restore, and names the shapes a plan can be
// built against. A plan reads rows only when it runs, from the snapshot
// it runs on, so DML cannot make one wrong; the plan cache keys on the
// epoch.
//
// Concurrency model: the committed state is one immutable value, a
// *Snapshot — table map, view map, commit counter, schema epoch. Every
// mutation (Create, Drop, CreateView, DropView, InsertRows, KeepRun,
// UpdateRows, ReplaceRows, Restore) builds the next state copy-on-write
// under the catalog's mutex — new *Table versions, a copy of whichever
// map it edits — and publishes it with one pointer store. Readers never
// lock: Snapshot is a pointer load, and whatever plans and executes
// against it sees the tables and views of exactly one commit, never a
// torn write, while DML never waits for a slow reader to finish.
//
// A new table version is built from the one it replaces, not from
// scratch: InsertRows extends the rows and every built column into the
// room past them when the version it extends was the last to claim
// that buffer, and otherwise copies them once with headroom; KeepRun
// shares the run of rows a DELETE keeps, and UpdateRows every column
// an UPDATE does not set, with its statistics. What a version publishes
// never changes: every row and column slice has cap == len, so an
// append by any reader copies, and the room past it is written only by
// a later commit, where no published slice reaches. A slice a caller
// hands in (ReplaceRows, UpdateRows, Restore) is never grown in place.
//
// The builder-path methods Table.Insert and Table.BulkLoad mutate a
// table in place and are reserved for setup-time loaders (datagen)
// populating freshly created tables before the catalog is shared.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"disqo/internal/sqlparser"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Column describes one table column.
type Column struct {
	Name string
	Type types.Kind
}

// Table is a named base relation plus its column statistics and its
// columnar view. Once a table version is published in a Catalog it is
// immutable: mutations go through the Catalog's copy-on-write methods,
// which swap in a new *Table built from the one it replaces. The lazily
// made statistics and batch are the only mutable state and are guarded
// by their own mutex, so concurrent snapshot readers may share one
// version freely.
type Table struct {
	Name    string
	Columns []Column
	Rel     *storage.Relation

	// Version is the catalog commit counter value at which this table
	// version was published. Two lookups returning the same name and
	// Version are guaranteed to hold identical data, which is what the
	// result cache keys on for sound invalidation.
	Version uint64

	// rows places Rel.Tuples in the buffer InsertRows grew it in; zero
	// when the slice is a caller's or the builder path's.
	rows storage.Span[[]types.Value]

	statsMu sync.Mutex
	stats   []*ColumnStats // by column; nil entries not yet computed
	batch   *storage.Batch // the columnar view of Rel; nil until made
}

// ColumnStats are one column's statistics for the cost model: the
// number of distinct values (Identical semantics, NULL counting as one
// value) and the range of its numeric values, both zero when it has
// none.
type ColumnStats struct {
	Distinct int
	Min, Max float64
}

// View is a named query: a FROM reference to it expands like a derived
// table over Body. SQL is the CREATE VIEW statement as written — what
// checkpoints serialize and what the state fingerprint hashes.
type View struct {
	Name string // lower-case
	SQL  string
	Body *sqlparser.SelectStmt
}

// NewView is the one place CREATE VIEW text becomes a view: the DDL
// statement and crash recovery both come through here. A parse failure is returned as the parser's own error.
// The body is not checked against any table — a view may outlive the
// tables it names, and whoever defines one live validates it first.
func NewView(sql string) (*View, error) {
	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	cv, ok := stmt.(*sqlparser.CreateViewStmt)
	if !ok {
		return nil, fmt.Errorf("catalog: %q is not a CREATE VIEW statement", sql)
	}
	return &View{Name: strings.ToLower(cv.Name), SQL: sql, Body: cv.Body}, nil
}

// Reader resolves table and view names in one committed state. It is
// implemented by the live *Catalog (always the latest commit) and by
// *Snapshot (one pinned commit); the planner, estimator, translator,
// and executor all work against this interface so a whole query can run
// off one immutable snapshot. Version identifies the commit the reader
// observes.
type Reader interface {
	Lookup(name string) (*Table, error)
	View(name string) (*View, bool)
	Names() []string
	Version() uint64
}

// Catalog is the live committed state. All methods are safe for
// concurrent use: reads load the current Snapshot, mutations publish
// its successor under mu.
type Catalog struct {
	mu  sync.Mutex // serializes mutations; readers never take it
	cur atomic.Pointer[Snapshot]
}

// New returns an empty catalog.
func New() *Catalog {
	c := &Catalog{}
	c.cur.Store(&Snapshot{})
	return c
}

// Snapshot pins the current commit: the tables and views as of one
// commit boundary. It is a pointer load — no lock, no copy — because
// the state it returns is never modified again.
func (c *Catalog) Snapshot() *Snapshot { return c.cur.Load() }

// Lookup returns the latest committed version of the table, or an error
// naming it.
func (c *Catalog) Lookup(name string) (*Table, error) { return c.Snapshot().Lookup(name) }

// View returns the latest committed definition of the view.
func (c *Catalog) View(name string) (*View, bool) { return c.Snapshot().View(name) }

// Names returns the defined table names, sorted.
func (c *Catalog) Names() []string { return c.Snapshot().Names() }

// Version returns the commit counter: it advances on every successful
// mutation, so two snapshots with equal versions hold identical states.
func (c *Catalog) Version() uint64 { return c.Snapshot().Version() }

// Snapshot is one committed state: immutable once published, so any
// number of readers share it. It implements Reader, so planning and
// execution can run entirely against it while later commits replace it
// in the live catalog.
type Snapshot struct {
	tables  map[string]*Table
	views   map[string]*View
	version uint64
	epoch   uint64
}

// Lookup returns the pinned version of the table.
func (s *Snapshot) Lookup(name string) (*Table, error) {
	if t, ok := s.tables[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("catalog: no table %q", name)
}

// View returns the pinned definition of the view.
func (s *Snapshot) View(name string) (*View, bool) {
	v, ok := s.views[strings.ToLower(name)]
	return v, ok
}

// Names returns the snapshot's table names, sorted.
func (s *Snapshot) Names() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Version identifies the commit this snapshot pinned.
func (s *Snapshot) Version() uint64 { return s.version }

// SchemaEpoch identifies the table and view definitions this snapshot
// pinned: two snapshots of one catalog with equal epochs define the
// same tables with the same columns and the same views, whatever rows
// their tables hold.
func (s *Snapshot) SchemaEpoch() uint64 { return s.epoch }

// Views returns the snapshot's view definitions in sorted-name order.
func (s *Snapshot) Views() []*View {
	out := make([]*View, 0, len(s.views))
	for _, v := range s.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// commit publishes the successor of the current state. edit receives a
// copy carrying the current maps and the next counter value, replaces
// the map it changes by an edited copy (with), and returns an error to
// leave the committed state as it was.
func (c *Catalog) commit(edit func(next *Snapshot) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.cur.Load()
	next.version++
	if err := edit(&next); err != nil {
		return err
	}
	c.cur.Store(&next)
	return nil
}

// ddl is commit for an edit that changes what is defined — a table or a
// view comes or goes — and so advances the schema epoch as well.
func (c *Catalog) ddl(edit func(next *Snapshot) error) error {
	return c.commit(func(next *Snapshot) error {
		next.epoch++
		return edit(next)
	})
}

// with returns a copy of m in which key maps to v, or is absent when v
// is nil. Published maps are never written, so an edit copies.
func with[V any](m map[string]*V, key string, v *V) map[string]*V {
	out := make(map[string]*V, len(m)+1)
	for k, x := range m {
		out[k] = x
	}
	if v == nil {
		delete(out, key)
	} else {
		out[key] = v
	}
	return out
}

// taken reports a name some table or view already has: the two share
// one name space, so a FROM reference resolves to exactly one of them.
func (s *Snapshot) taken(name string) error {
	key := strings.ToLower(name)
	if _, ok := s.tables[key]; ok {
		return fmt.Errorf("catalog: table %q already exists", name)
	}
	if _, ok := s.views[key]; ok {
		return fmt.Errorf("catalog: view %q already exists", name)
	}
	return nil
}

// qualify builds the executor attribute name for a table column: the
// translator binds range variables to these, e.g. table "r" column "a1"
// becomes "r.a1".
func qualify(table, col string) string {
	return strings.ToLower(table) + "." + strings.ToLower(col)
}

// Create defines a new table with the given columns and an empty heap.
func (c *Catalog) Create(name string, cols []Column) (*Table, error) {
	key := strings.ToLower(name)
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %q needs at least one column", name)
	}
	attrs := make([]string, len(cols))
	seen := map[string]bool{}
	for i, col := range cols {
		lc := strings.ToLower(col.Name)
		if seen[lc] {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		seen[lc] = true
		attrs[i] = qualify(key, col.Name)
	}
	t := &Table{
		Name:    key,
		Columns: cols,
		Rel:     storage.NewRelation(storage.NewSchema(attrs...)),
	}
	err := c.ddl(func(next *Snapshot) error {
		if err := next.taken(name); err != nil {
			return err
		}
		t.Version = next.version
		next.tables = with(next.tables, key, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Drop removes a table. Snapshots pinned before the drop keep resolving
// the old version.
func (c *Catalog) Drop(name string) error {
	return c.ddl(func(next *Snapshot) error {
		if _, err := next.Lookup(name); err != nil {
			return err
		}
		next.tables = with(next.tables, strings.ToLower(name), nil)
		return nil
	})
}

// CreateView defines a view (see NewView) under a name no table or view
// has yet.
func (c *Catalog) CreateView(v *View) error {
	return c.ddl(func(next *Snapshot) error {
		if err := next.taken(v.Name); err != nil {
			return err
		}
		next.views = with(next.views, v.Name, v)
		return nil
	})
}

// DropView removes a view. Snapshots pinned before the drop keep
// expanding the old definition.
func (c *Catalog) DropView(name string) error {
	return c.ddl(func(next *Snapshot) error {
		if _, ok := next.View(name); !ok {
			return fmt.Errorf("catalog: no view %q", name)
		}
		next.views = with(next.views, strings.ToLower(name), nil)
		return nil
	})
}

// CheckRow validates one row against the table's column types. NULL is
// accepted in any column (the paper's schemas are nullable throughout).
func (t *Table) CheckRow(row []types.Value) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("catalog: %s expects %d values, got %d", t.Name, len(t.Columns), len(row))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if v.Kind() != t.Columns[i].Type &&
			!(v.IsNumeric() && (t.Columns[i].Type == types.KindInt || t.Columns[i].Type == types.KindFloat)) {
			return fmt.Errorf("catalog: %s.%s expects %s, got %s",
				t.Name, t.Columns[i].Name, t.Columns[i].Type, v.Kind())
		}
	}
	return nil
}

// withRows builds the next version of a table, published at the given
// commit: same name, columns, and schema over a new tuple set, capped
// (cap == len), with no statistics or columns yet.
func (t *Table) withRows(tuples [][]types.Value, version uint64) *Table {
	return &Table{
		Name:    t.Name,
		Columns: t.Columns,
		Rel:     &storage.Relation{Schema: t.Rel.Schema, Tuples: slices.Clip(tuples)},
		Version: version,
	}
}

// built returns the version's columnar view if a reader has made it.
func (t *Table) built() *storage.Batch {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.batch
}

// current returns the committed version of pre's table, failing when it
// is no longer pre: a write computed against pre commits over pre alone.
func (s *Snapshot) current(pre *Table) (*Table, error) {
	t, err := s.Lookup(pre.Name)
	if err == nil && t != pre {
		err = fmt.Errorf("catalog: %s changed since version %d", pre.Name, pre.Version)
	}
	return t, err
}

// InsertRows appends rows to a table copy-on-write: after arity and
// type checking, a new table version holding the old rows followed by
// the new ones is swapped in atomically, its row list and each column
// the old version had built extended in place or copied once
// (storage.Span.Extend). In-flight snapshot readers keep the previous
// version; either all rows commit or none do.
func (c *Catalog) InsertRows(name string, rows ...[]types.Value) error {
	return c.commit(func(next *Snapshot) error {
		t, err := next.Lookup(name)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := t.CheckRow(row); err != nil {
				return err
			}
		}
		tuples, span := t.rows.Extend(t.Rel.Tuples, len(rows))
		copy(tuples[len(t.Rel.Tuples):], rows)
		v := t.withRows(tuples, next.version)
		v.rows = span
		if b := t.built(); b != nil {
			v.batch = b.Extended(v.Rel, rows)
		}
		next.tables = with(next.tables, t.Name, v)
		return nil
	})
}

// KeepRun commits the version of pre's table that keeps only its rows
// lo … hi-1: a DELETE whose survivors are one contiguous run. A run of
// at least half the rows shares pre's row list and every column pre has
// built (where the run keeps the column's representation); a smaller
// one is copied out, so a few survivors cannot pin a large buffer, and
// builds its columns on first use. pre must be the committed version.
func (c *Catalog) KeepRun(pre *Table, lo, hi int) error {
	return c.commit(func(next *Snapshot) error {
		t, err := next.current(pre)
		if err != nil {
			return err
		}
		if 2*(hi-lo) < len(t.Rel.Tuples) {
			kept := make([][]types.Value, hi-lo)
			copy(kept, t.Rel.Tuples[lo:hi])
			next.tables = with(next.tables, t.Name, t.withRows(kept, next.version))
			return nil
		}
		v := t.withRows(t.Rel.Tuples[lo:hi], next.version)
		v.rows = t.rows.From(lo)
		if b := t.built(); b != nil {
			v.batch = b.Window(v.Rel, lo)
		}
		next.tables = with(next.tables, t.Name, v)
		return nil
	})
}

// UpdateRows commits tuples as the rows of pre's table: an UPDATE's new
// row set, which differs from pre's only in the columns set lists. Every
// other column pre has built, and its statistics, are shared. It checks
// no row (the caller has checked each row it changed) and never grows
// tuples in place; the caller must not retain or mutate it afterwards.
// pre must be the committed version.
func (c *Catalog) UpdateRows(pre *Table, tuples [][]types.Value, set []int) error {
	return c.commit(func(next *Snapshot) error {
		t, err := next.current(pre)
		if err != nil {
			return err
		}
		v := t.withRows(tuples, next.version)
		t.statsMu.Lock()
		if t.batch != nil {
			v.batch = t.batch.Sharing(v.Rel, set)
		}
		if t.stats != nil {
			v.stats = slices.Clone(t.stats)
			for _, i := range set {
				v.stats[i] = nil
			}
		}
		t.statsMu.Unlock()
		next.tables = with(next.tables, t.Name, v)
		return nil
	})
}

// ReplaceRows swaps in a new tuple set for the table. It checks no row
// and never grows tuples in place: a caller may hand in the same slice
// again, or another version's rows. The caller must not mutate the
// slice afterwards.
func (c *Catalog) ReplaceRows(name string, tuples [][]types.Value) error {
	return c.commit(func(next *Snapshot) error {
		t, err := next.Lookup(name)
		if err != nil {
			return err
		}
		next.tables = with(next.tables, t.Name, t.withRows(tuples, next.version))
		return nil
	})
}

// Insert appends a row in place after arity and type checking. Builder
// path: only for tables not yet visible to concurrent readers (setup
// code, single-threaded tests); concurrent mutation goes through
// Catalog.InsertRows.
func (t *Table) Insert(row []types.Value) error {
	if err := t.CheckRow(row); err != nil {
		return err
	}
	t.Rel.Append(row)
	t.dropDerived()
	return nil
}

// BulkLoad appends rows in place without per-row type checking — the
// data generators produce well-typed rows and load millions of them.
// The row list it leaves is capped, as a commit's is. Builder path: see
// Insert.
func (t *Table) BulkLoad(rows [][]types.Value) {
	t.Rel.Tuples = slices.Clip(append(t.Rel.Tuples, rows...))
	t.dropDerived()
}

// dropDerived forgets the statistics, the columnar view and the place
// of the rows a builder-path method has just changed in place.
func (t *Table) dropDerived() {
	t.statsMu.Lock()
	t.stats, t.batch, t.rows = nil, nil, storage.Span[[]types.Value]{}
	t.statsMu.Unlock()
}

// Batch returns the columnar view of this version's rows, made on first
// use and kept with the version, as its statistics are: every query that
// scans the version reads the same column vectors, each built once.
func (t *Table) Batch() *storage.Batch {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.batch == nil {
		t.batch = storage.NewBatch(t.Rel)
	}
	return t.batch
}

// ColumnStats returns column i's statistics, computing them on first
// use and caching them with this table version; a column the cost model
// never asks about is never scanned. It is safe for any number of
// concurrent readers, who share one computation per column: published
// table versions are immutable, so it always sees a stable relation.
func (t *Table) ColumnStats(i int) *ColumnStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.stats == nil {
		t.stats = make([]*ColumnStats, len(t.Columns))
	}
	if t.stats[i] == nil {
		t.stats[i] = columnStats(t.Rel.Tuples, i)
	}
	return t.stats[i]
}

// hashSlices recycles columnStats' hash slices: a write makes a new
// table version, whose statistics are computed again on first use.
var hashSlices = sync.Pool{New: func() any { return new([]uint64) }}

// columnStats scans column i once. Distinct values are counted as
// distinct hashes, as a hash set would count them, but by sorting one
// slice of them and counting runs.
func columnStats(tuples [][]types.Value, i int) *ColumnStats {
	s := &ColumnStats{}
	pooled := hashSlices.Get().(*[]uint64)
	hashes := slices.Grow((*pooled)[:0], len(tuples))[:len(tuples)]
	first := true
	for r, row := range tuples {
		v := row[i]
		hashes[r] = v.Hash()
		if f, ok := v.AsFloat(); ok {
			if first || f < s.Min {
				s.Min = f
			}
			if first || f > s.Max {
				s.Max = f
			}
			first = false
		}
	}
	slices.Sort(hashes)
	for r, h := range hashes {
		if r == 0 || h != hashes[r-1] {
			s.Distinct++
		}
	}
	*pooled = hashes
	hashSlices.Put(pooled)
	return s
}
