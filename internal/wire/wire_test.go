package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"disqo/internal/testutil"
	"disqo/internal/types"
)

// grid is every value a lossy codec would get wrong: the ints either side
// of ±2^53 (where a JSON number stops being exact) and at the int64
// limits, the signed zeros, NaN, ±Inf and the smallest subnormal, empty
// strings, strings with a newline, and one that is not valid UTF-8.
var grid = []types.Value{
	types.Null(),
	types.NewBool(true),
	types.NewBool(false),
	types.NewInt(0),
	types.NewInt(-1),
	types.NewInt(1<<53 - 2),
	types.NewInt(1<<53 + 2),
	types.NewInt(-(1<<53 - 2)),
	types.NewInt(-(1<<53 + 2)),
	types.NewInt(math.MaxInt64),
	types.NewInt(math.MinInt64),
	types.NewFloat(0),
	types.NewFloat(math.Copysign(0, -1)),
	types.NewFloat(0.1),
	types.NewFloat(math.MaxFloat64),
	types.NewFloat(math.SmallestNonzeroFloat64),
	types.NewFloat(math.Inf(1)),
	types.NewFloat(math.Inf(-1)),
	types.NewFloat(math.NaN()),
	types.NewString(""),
	types.NewString("it's a \"test\"\nwith newline"),
	types.NewString("a\xffb"),
}

// same is Identical that also tells 1 from 1.0, -0 from 0 and one NaN
// payload from another: the wire must hand back what it was given.
func same(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if x, ok := a.FloatOk(); ok {
		y, _ := b.FloatOk()
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return types.Identical(a, b)
}

// roundTrip sends rows through EncodeRows, a full Response marshal and
// DecodeRows, and fails unless every value comes back the same.
func roundTrip(t *testing.T, name string, rows [][]types.Value) {
	t.Helper()
	data, err := json.Marshal(&Response{ID: 7, OK: true, Rows: EncodeRows(rows)})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var resp Response
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := DecodeRows(resp.Rows)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if resp.ID != 7 || !resp.OK || len(got) != len(rows) {
		t.Fatalf("%s: got %d rows in %+v, want %d", name, len(got), resp, len(rows))
	}
	for i := range rows {
		if len(got[i]) != len(rows[i]) {
			t.Fatalf("%s: row %d has %d columns, want %d", name, i, len(got[i]), len(rows[i]))
		}
		for j := range rows[i] {
			if !same(rows[i][j], got[i][j]) {
				t.Fatalf("%s: row %d column %d: %v (%s) came back as %v (%s)", name, i, j,
					rows[i][j], rows[i][j].Kind(), got[i][j], got[i][j].Kind())
			}
		}
	}
}

// TestValueRoundTrip: each value of the grid survives as a one-row,
// one-column result.
func TestValueRoundTrip(t *testing.T) {
	for _, v := range grid {
		roundTrip(t, v.String(), [][]types.Value{{v}})
	}
}

// TestRowsRoundTrip: whole results survive — the grid as one mixed
// column and as one row, columns of one kind with and without NULLs,
// an all-NULL column, and zero rows.
func TestRowsRoundTrip(t *testing.T) {
	column := make([][]types.Value, len(grid))
	for i, v := range grid {
		column[i] = []types.Value{v, types.NewInt(int64(i)), types.Null()}
	}
	roundTrip(t, "grid as a column", column)
	roundTrip(t, "grid as a row", [][]types.Value{grid, grid})
	roundTrip(t, "kinds per column", [][]types.Value{
		{types.NewInt(1), types.NewString("a"), types.Null(), types.NewFloat(2.5), types.NewBool(true)},
		{types.NewInt(2), types.NewString(""), types.Null(), types.Null(), types.NewBool(false)},
		{types.Null(), types.NewString("c\n"), types.Null(), types.NewFloat(-1), types.Null()},
	})
	roundTrip(t, "zero rows", nil)
	if f := EncodeRows(nil); len(f) != 0 {
		t.Fatalf("zero rows encode as %x, want the empty frame", f)
	}
}

// TestCodecAllocations: encoding allocates the frame and its column
// kinds; decoding the value slab, the row headers and the one string
// every string value slices from — nothing per value.
func TestCodecAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rows := make([][]types.Value, 500)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewString("name"), types.NewFloat(float64(i) / 3)}
	}
	f := EncodeRows(rows)
	if n := testing.AllocsPerRun(10, func() { EncodeRows(rows) }); n > 2 {
		t.Errorf("EncodeRows of %d values allocates %v times, want 2", 3*len(rows), n)
	}
	if n := testing.AllocsPerRun(10, func() { DecodeRows(f) }); n > 3 {
		t.Errorf("DecodeRows of %d values allocates %v times, want 3", 3*len(rows), n)
	}
}

// TestDecodeRowsRejectsGarbage: every byte string EncodeRows would not
// produce is an error, never a zero value or a guess.
func TestDecodeRowsRejectsGarbage(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1e9)
	huge = append(huge, 1, kindInt, 0, 0, 0)
	for name, f := range map[string][]byte{
		"truncated header":            {0x01},
		"zero rows, one column":       {0, 1},
		"one row, zero columns":       {1, 0},
		"overlong varint":             {0x81, 0x00, 1, kindInt, 0, 2},
		"unknown column kind":         {1, 1, 9, 0},
		"bitmap padding set":          {1, 1, kindInt, 0x02, 2},
		"NULL column with values":     {1, 1, kindNull, 0x00},
		"int column of NULLs":         {1, 1, kindInt, 0x01},
		"mixed column of one kind":    {2, 1, kindMixed, 0x00, kindInt, kindInt, 2, 4},
		"NULL kind in a mixed column": {2, 1, kindMixed, 0x00, kindInt, kindNull, 2, 4},
		"bool byte 2":                 {1, 1, kindBool, 0, 2},
		"truncated float":             {1, 1, kindFloat, 0, 1, 2, 3},
		"truncated string":            {1, 1, kindString, 0, 5, 'a'},
		"trailing bytes":              {1, 1, kindInt, 0, 2, 0},
		"1e9 rows in ten bytes":       huge,
	} {
		if rows, err := DecodeRows(f); err == nil {
			t.Errorf("%s: %x decoded to %v", name, f, rows)
		}
	}
	if testutil.RaceEnabled {
		return
	}
	// The size check comes before the allocation: a ten-byte frame cannot
	// make the decoder reserve room for a billion values.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DecodeRows(huge)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
		t.Errorf("rejecting the %d-byte frame %x allocates %d bytes", len(huge), huge, n)
	}
}

// FuzzDecodeRows: on any bytes the decoder either fails or returns rows
// that re-encode to exactly those bytes — it never panics, and it
// accepts one encoding per result.
func FuzzDecodeRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(EncodeRows([][]types.Value{grid})))
	for _, v := range grid {
		f.Add([]byte(EncodeRows([][]types.Value{{v}, {types.Null()}, {v}})))
	}
	column := make([][]types.Value, len(grid))
	for i, v := range grid {
		column[i] = []types.Value{v}
	}
	f.Add([]byte(EncodeRows(column)))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeRows(data)
		if err != nil {
			return
		}
		if again := EncodeRows(rows); !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %v, which re-encodes as %x", data, rows, again)
		}
	})
}
