package catalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"disqo/internal/storage"
	"disqo/internal/types"
)

// image is a deep copy of what a reader of one table version sees: its
// rows and every column of its columnar view.
type image struct {
	what string
	tbl  *Table
	rows [][]types.Value
	cols []storage.ColVec
}

// imageOf builds every column of tbl (so the next commit has them to
// carry) and copies the version out.
func imageOf(what string, tbl *Table) image {
	im := image{what: what, tbl: tbl, rows: make([][]types.Value, len(tbl.Rel.Tuples))}
	for i, row := range tbl.Rel.Tuples {
		im.rows[i] = slices.Clone(row)
	}
	for i := range tbl.Columns {
		c := tbl.Batch().Col(i)
		im.cols = append(im.cols, storage.ColVec{Kind: c.Kind, Ints: slices.Clone(c.Ints),
			Floats: slices.Clone(c.Floats), Strs: slices.Clone(c.Strs), Bools: slices.Clone(c.Bools),
			Nulls: slices.Clone(c.Nulls), Mixed: slices.Clone(c.Mixed)})
	}
	return im
}

// changed reports how the version now differs from its image, or "".
func (im image) changed() string {
	if !reflect.DeepEqual(im.tbl.Rel.Tuples, im.rows) {
		return fmt.Sprintf("%s: rows now %v, pinned %v", im.what, im.tbl.Rel.Tuples, im.rows)
	}
	for i := range im.cols {
		if got := im.tbl.Batch().Col(i); !reflect.DeepEqual(*got, im.cols[i]) {
			return fmt.Sprintf("%s: column %d now %+v, pinned %+v", im.what, i, *got, im.cols[i])
		}
	}
	return ""
}

// uncapped names a slice the version publishes with room past its
// length, into which an append by a reader would write, or "".
func uncapped(tbl *Table) string {
	if cap(tbl.Rel.Tuples) != len(tbl.Rel.Tuples) {
		return "rows"
	}
	for i := range tbl.Columns {
		c := tbl.Batch().Col(i)
		for name, capped := range map[string]bool{
			"Ints": cap(c.Ints) == len(c.Ints), "Floats": cap(c.Floats) == len(c.Floats),
			"Strs": cap(c.Strs) == len(c.Strs), "Bools": cap(c.Bools) == len(c.Bools),
			"Nulls": cap(c.Nulls) == len(c.Nulls), "Mixed": cap(c.Mixed) == len(c.Mixed),
		} {
			if !capped {
				return fmt.Sprintf("column %d's %s", i, name)
			}
		}
	}
	return ""
}

// TestCommitKeepsPinnedVersions: a commit that carries its table's rows
// and columns forward — extending them in place, sharing a kept run,
// sharing the columns an UPDATE does not set — never changes what an
// earlier version shows, while readers scan every pinned version
// concurrently. Each step pins the version it made; the row list starts
// where the step says it may (shared with the version before) or must
// not (copied).
func TestCommitKeepsPinnedVersions(t *testing.T) {
	c := New()
	if _, err := c.Create("t", []Column{{"k", types.KindInt}, {"v", types.KindInt}, {"s", types.KindString}}); err != nil {
		t.Fatal(err)
	}
	next := 0
	fresh := func(n int) [][]types.Value {
		rows := make([][]types.Value, n)
		for i := range rows {
			next++
			rows[i] = []types.Value{types.NewInt(int64(next)), types.NewInt(int64(next * 10)), types.NewString(fmt.Sprint("r", next))}
		}
		return rows
	}
	cur := func() *Table {
		tbl, err := c.Lookup("t")
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	// reused is a caller's slice with room past its length, committed
	// twice with inserts after each: growing it in place would write the
	// second insert's rows over the first's.
	reused := make([][]types.Value, 0, 64)
	reused = append(reused, fresh(5)...)

	// A step's row list starts at the previous version's row at, or is
	// new: copied, so neither the previous version's nor the reused
	// caller slice's array, or the caller's own list.
	const copies, callers = -1, -2
	steps := []struct {
		what string
		at   int
		do   func(pre *Table) error
	}{
		{"insert into the empty table", copies, func(*Table) error { return c.InsertRows("t", fresh(8)...) }},
		{"insert past an exact list", copies, func(*Table) error { return c.InsertRows("t", fresh(4)...) }},
		{"insert into the room", 0, func(*Table) error { return c.InsertRows("t", fresh(2)...) }},
		{"delete the tail", 0, func(pre *Table) error { return c.KeepRun(pre, 0, 10) }},
		{"insert after the tail delete", copies, func(*Table) error { return c.InsertRows("t", fresh(3)...) }},
		{"delete the head", 2, func(pre *Table) error { return c.KeepRun(pre, 2, len(pre.Rel.Tuples)) }},
		{"insert after the head delete", 0, func(*Table) error { return c.InsertRows("t", fresh(1)...) }},
		{"update one column", callers, func(pre *Table) error {
			rows := slices.Clone(pre.Rel.Tuples)
			for i := 0; i < len(rows); i += 2 {
				rows[i] = []types.Value{rows[i][0], types.NewInt(-1), rows[i][2]}
			}
			return c.UpdateRows(pre, rows, []int{1})
		}},
		{"insert after the update", copies, func(*Table) error { return c.InsertRows("t", fresh(2)...) }},
		{"non-contiguous delete", callers, func(pre *Table) error {
			var kept [][]types.Value
			for i, row := range pre.Rel.Tuples {
				if i%3 != 1 {
					kept = append(kept, row)
				}
			}
			return c.ReplaceRows("t", kept)
		}},
		{"insert after the delete", copies, func(*Table) error { return c.InsertRows("t", fresh(2)...) }},
		{"replace with a caller's slice", callers, func(*Table) error { return c.ReplaceRows("t", reused) }},
		{"insert after the replace", copies, func(*Table) error { return c.InsertRows("t", fresh(3)...) }},
		{"replace with the same slice again", callers, func(*Table) error { return c.ReplaceRows("t", reused) }},
		{"insert after the second replace", copies, func(*Table) error { return c.InsertRows("t", fresh(3)...) }},
		{"insert into the room again", 0, func(*Table) error { return c.InsertRows("t", fresh(1)...) }},
	}

	var pinned atomic.Pointer[[]image]
	pinned.Store(&[]image{})
	var drifts atomic.Int64
	done := make(chan struct{})
	var readers sync.WaitGroup
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, im := range *pinned.Load() {
					if msg := im.changed(); msg != "" && drifts.Add(1) == 1 {
						t.Errorf("a reader saw a pinned version change: %s", msg)
					}
				}
			}
		}()
	}

	prev := cur()
	for _, st := range steps {
		if err := st.do(prev); err != nil {
			t.Fatalf("%s: %v", st.what, err)
		}
		v := cur()
		if what := uncapped(v); what != "" {
			t.Errorf("%s published %s with room past its length", st.what, what)
		}
		rows, was := v.Rel.Tuples, prev.Rel.Tuples
		switch st.at {
		case callers:
		case copies:
			if inside(rows, was) || inside(rows, reused) {
				t.Errorf("%s grew a list another version or a caller holds", st.what)
			}
		default:
			if len(rows) == 0 || &rows[0] != &was[st.at] {
				t.Errorf("%s copied the rows; it should share the previous version's from row %d", st.what, st.at)
			}
		}
		for _, im := range *pinned.Load() {
			if msg := im.changed(); msg != "" {
				t.Errorf("after %s: %s", st.what, msg)
			}
		}
		im := imageOf(st.what, v)
		pinned.Store(ptr(append(slices.Clone(*pinned.Load()), im)))
		prev = v
	}
	close(done)
	readers.Wait()
	for _, im := range *pinned.Load() {
		if msg := im.changed(); msg != "" {
			t.Errorf("at the end: %s", msg)
		}
	}
}

// inside reports whether a's first element lies in b's backing array.
func inside(a, b [][]types.Value) bool {
	if len(a) == 0 {
		return false
	}
	b = b[:cap(b)]
	for i := range b {
		if &a[0] == &b[i] {
			return true
		}
	}
	return false
}

func ptr[T any](v T) *T { return &v }

// TestCarriedColumnsMatchRebuilt: over random scripts of inserts
// (NULLs, floats into an int column), deletes (runs of every size and
// place, and scattered rows), updates of random column sets and
// replacements, every version's every column — carried or built — is
// the column a build from the version's rows makes, every published
// slice is capped, and every earlier version still shows what it did.
func TestCarriedColumnsMatchRebuilt(t *testing.T) {
	cols := []Column{{"i", types.KindInt}, {"f", types.KindFloat}, {"s", types.KindString},
		{"b", types.KindBool}, {"n", types.KindInt}}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		if _, err := c.Create("t", cols); err != nil {
			t.Fatal(err)
		}
		value := func(col int) types.Value {
			if col == 4 || rng.Intn(6) == 0 {
				return types.Null() // n is NULL throughout
			}
			switch col {
			case 0:
				if rng.Intn(25) == 0 {
					return types.NewFloat(float64(rng.Intn(50)) + 0.5)
				}
				return types.NewInt(int64(rng.Intn(50)))
			case 1:
				return types.NewFloat(rng.Float64())
			case 2:
				return types.NewString(fmt.Sprint("s", rng.Intn(20)))
			}
			return types.NewBool(rng.Intn(2) == 0)
		}
		row := func() []types.Value {
			r := make([]types.Value, len(cols))
			for i := range r {
				r[i] = value(i)
			}
			return r
		}
		var images []image
		var reused [][]types.Value
		for step := 0; step < 60; step++ {
			pre, _ := c.Lookup("t")
			for i := range cols { // build some columns for the commit to carry
				if rng.Intn(3) > 0 {
					pre.Batch().Col(i)
				}
			}
			n := len(pre.Rel.Tuples)
			var err error
			var what string
			switch op := rng.Intn(10); {
			case op < 5 || n < 2:
				k := 1 + rng.Intn(6)
				if rng.Intn(8) == 0 {
					k = 1 + rng.Intn(60)
				}
				rows := make([][]types.Value, k)
				for i := range rows {
					rows[i] = row()
				}
				what, err = fmt.Sprintf("insert %d", k), c.InsertRows("t", rows...)
			case op < 7:
				lo := rng.Intn(n)
				hi := lo + 1 + rng.Intn(n-lo)
				if rng.Intn(2) == 0 { // the common shapes: a tail or head delete
					lo, hi = 0, n-1-rng.Intn(n/2)
				}
				what, err = fmt.Sprintf("keep [%d, %d) of %d", lo, hi, n), c.KeepRun(pre, lo, hi)
			case op < 9:
				var set []int
				for i := range cols {
					if rng.Intn(3) == 0 {
						set = append(set, i)
					}
				}
				rows := slices.Clone(pre.Rel.Tuples)
				for r := range rows {
					if rng.Intn(3) == 0 {
						rows[r] = slices.Clone(rows[r])
						for _, i := range set {
							rows[r][i] = value(i)
						}
					}
				}
				what, err = fmt.Sprintf("update %v", set), c.UpdateRows(pre, rows, set)
			default:
				if reused == nil || rng.Intn(2) == 0 {
					reused = make([][]types.Value, 0, n+8)
					for _, r := range pre.Rel.Tuples {
						if rng.Intn(4) > 0 {
							reused = append(reused, r)
						}
					}
				}
				what, err = "replace", c.ReplaceRows("t", reused)
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, what, err)
			}
			v, _ := c.Lookup("t")
			for i := range cols {
				got := v.Batch().Col(i)
				rows := &storage.Relation{Schema: v.Rel.Schema, Tuples: slices.Clone(v.Rel.Tuples)}
				if want := storage.NewBatch(rows).Col(i); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d %s: column %d is %+v, a build from the rows makes %+v", seed, step, what, i, *got, *want)
				}
			}
			if what := uncapped(v); what != "" {
				t.Fatalf("seed %d step %d: %s published with room past its length", seed, step, what)
			}
			images = append(images, imageOf(what, v))
		}
		for _, im := range images {
			if msg := im.changed(); msg != "" {
				t.Fatalf("seed %d: %s", seed, msg)
			}
		}
	}
}
