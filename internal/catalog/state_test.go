package catalog

import (
	"fmt"
	"strings"
	"testing"

	"disqo/internal/sqlparser"
	"disqo/internal/types"
)

func mustView(t *testing.T, sql string) *View {
	t.Helper()
	v, err := NewView(sql)
	if err != nil {
		t.Fatalf("NewView(%q): %v", sql, err)
	}
	return v
}

// describe renders everything a reader can see of a state: the commit
// counter, every table with its version and rows, every view's text.
// The names resolve through r — the live catalog or a snapshot.
func describe(r Reader, views []*View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "version %d\n", r.Version())
	for _, name := range r.Names() {
		tbl, err := r.Lookup(name)
		if err != nil {
			return "lookup of listed table failed: " + err.Error()
		}
		fmt.Fprintf(&b, "table %s@%d %v\n", name, tbl.Version, tbl.Rel.Tuples)
	}
	for _, v := range views {
		if got, ok := r.View(v.Name); !ok || got != v {
			return "listed view does not resolve: " + v.Name
		}
		fmt.Fprintf(&b, "view %s := %s\n", v.Name, v.SQL)
	}
	return b.String()
}

func intCol(name string) []Column { return []Column{{Name: name, Type: types.KindInt}} }

// TestSnapshotPinsOneCommit: a snapshot keeps answering as of its
// commit, for tables and views alike, whatever commits after it; every
// successful mutation — view DDL included — advances the counter by
// exactly one, the schema epoch moves on DDL and Restore only (Restore
// past the restored counter too), and a refused mutation leaves the
// very same state in place.
func TestSnapshotPinsOneCommit(t *testing.T) {
	c := New()
	if _, err := c.Create("t", intCol("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(mustView(t, "CREATE VIEW v AS SELECT a FROM t WHERE a > 1")); err != nil {
		t.Fatal(err)
	}
	row := func(n int64) []types.Value { return []types.Value{types.NewInt(n)} }
	steps := []struct {
		name string
		ddl  bool
		do   func() error
	}{
		{"InsertRows", false, func() error { return c.InsertRows("t", row(1), row(2)) }},
		{"CreateView", true, func() error { return c.CreateView(mustView(t, "CREATE VIEW w AS SELECT a FROM t")) }},
		{"DropView", true, func() error { return c.DropView("V") }},
		{"CreateView again", true, func() error { return c.CreateView(mustView(t, "CREATE VIEW v AS SELECT a FROM t WHERE a > 2")) }},
		{"Create", true, func() error { _, err := c.Create("u", intCol("b")); return err }},
		{"ReplaceRows", false, func() error { return c.ReplaceRows("t", [][]types.Value{row(7)}) }},
		{"Drop", true, func() error { return c.Drop("u") }},
		{"Restore", true, func() error {
			c.Restore(nil, []*View{mustView(t, "CREATE VIEW only AS SELECT a FROM gone")}, c.Version()+1)
			return nil
		}},
	}
	for _, st := range steps {
		snap := c.Snapshot()
		before := describe(snap, snap.Views())
		if live := describe(c, c.Snapshot().Views()); live != before {
			t.Fatalf("before %s the live catalog and its snapshot disagree:\n%s\nvs\n%s", st.name, live, before)
		}
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if after := describe(snap, snap.Views()); after != before {
			t.Errorf("%s changed a snapshot pinned before it:\n%s\nnow\n%s", st.name, before, after)
		}
		if got, want := c.Version(), snap.Version()+1; got != want {
			t.Errorf("%s: version %d, want %d", st.name, got, want)
		}
		if got, was := c.Snapshot().SchemaEpoch(), snap.SchemaEpoch(); (got > was) != st.ddl || got < was {
			t.Errorf("%s: schema epoch %d → %d; it must advance exactly on DDL and Restore", st.name, was, got)
		}
		if describe(c, c.Snapshot().Views()) == before {
			t.Errorf("%s left the live state as it was", st.name)
		}
	}

	c = New()
	c.Create("t", intCol("a"))
	c.CreateView(mustView(t, "CREATE VIEW v AS SELECT a FROM t"))
	held := c.Snapshot()
	refused := map[string]error{
		"table over a view":     func() error { _, err := c.Create("V", intCol("a")); return err }(),
		"table over a table":    func() error { _, err := c.Create("T", intCol("a")); return err }(),
		"view over a table":     c.CreateView(mustView(t, "CREATE VIEW t AS SELECT a FROM t")),
		"view over a view":      c.CreateView(mustView(t, "CREATE VIEW V AS SELECT a FROM t")),
		"drop of no view":       c.DropView("t"),
		"drop of no table":      c.Drop("v"),
		"insert of a bad row":   c.InsertRows("t", []types.Value{types.NewString("x")}),
		"insert into a view":    c.InsertRows("v", row(1)),
		"replace in no table":   c.ReplaceRows("nope", nil),
		"table without columns": func() error { _, err := c.Create("e", nil); return err }(),
	}
	for what, err := range refused {
		if err == nil {
			t.Errorf("%s was accepted", what)
		}
	}
	if c.Snapshot() != held {
		t.Error("refused mutations replaced the committed state: equal versions must mean the identical state")
	}
	for _, version := range []uint64{0, held.Version() + 10} {
		was := c.Snapshot().SchemaEpoch()
		c.Restore(held.Tables(), held.Views(), version)
		if got := c.Snapshot().SchemaEpoch(); got <= was || got <= version {
			t.Errorf("Restore of version %d over epoch %d left epoch %d: it must pass both", version, was, got)
		}
	}
}

// TestSnapshotAllocatesNothing: pinning a commit is a pointer load.
func TestSnapshotAllocatesNothing(t *testing.T) {
	c := New()
	for _, name := range []string{"r", "s", "t", "part", "supplier", "partsupp", "nation", "region"} {
		if _, err := c.Create(name, intCol("a")); err != nil {
			t.Fatal(err)
		}
	}
	var snap *Snapshot
	if n := testing.AllocsPerRun(100, func() { snap = c.Snapshot() }); n != 0 {
		t.Errorf("Snapshot() allocates %v objects, want 0", n)
	}
	if len(snap.Names()) != 8 {
		t.Errorf("snapshot lists %v", snap.Names())
	}
}

// TestNewView: the one text → view constructor keeps the text as
// written, lower-cases the name, hands a parse failure back as the
// parser's own error and takes nothing but CREATE VIEW.
func TestNewView(t *testing.T) {
	const sql = "CREATE VIEW Big AS SELECT a FROM t -- wide\n WHERE a > 'x  y'"
	v := mustView(t, sql)
	if v.Name != "big" || v.SQL != sql || v.Body == nil {
		t.Errorf("NewView = %+v", v)
	}
	_, want := sqlparser.ParseStatement("CREATE VIEW v AS SELEC")
	if _, err := NewView("CREATE VIEW v AS SELEC"); err == nil || err.Error() != want.Error() {
		t.Errorf("parse failure came back as %v, want the parser's %v", err, want)
	}
	if _, err := NewView("DROP VIEW v"); err == nil {
		t.Error("DROP VIEW text made a view")
	}
}
