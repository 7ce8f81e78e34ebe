package types_test

import (
	"math"
	"math/rand"
	"testing"

	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/types"
)

// hashSample draws values of every kind: ints small, random and at the
// ends of int64; floats integral (the ints' numbers among them),
// fractional, ±0, ±Inf, NaNs of random payloads and the integral floats
// next to ±2⁶³; NULL; both booleans; and strings of length 0 to 17 over
// two letters, so equal ones recur and they cross the 8-byte word
// boundary twice.
func hashSample(rng *rand.Rand) types.Value {
	switch rng.Intn(8) {
	case 0:
		return types.Null()
	case 1:
		return types.NewBool(rng.Intn(2) == 0)
	case 2:
		return types.NewInt([]int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 53, 1<<53 + 1}[rng.Intn(9)])
	case 3:
		return types.NewInt(rng.Int63n(20) - 10)
	case 4:
		return types.NewFloat([]float64{0, math.Copysign(0, -1), 7, -1, 0.5, 1 << 53, -(1 << 63), 1 << 63,
			math.Nextafter(1<<63, 0), math.Nextafter(-(1 << 63), 0), math.Inf(1), math.Inf(-1)}[rng.Intn(12)])
	case 5:
		return types.NewFloat(math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x800fffffffffffff)) // a NaN
	case 6:
		return types.NewFloat(float64(rng.Intn(20)-10) / []float64{1, 2, 4}[rng.Intn(3)])
	default:
		b := make([]byte, rng.Intn(18))
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return types.NewString(string(b))
	}
}

// TestHashInvariants: over every pair of a sample of every kind,
// Identical values hash equally — 3 and 3.0, −0.0 and 0, every NaN
// payload, NULL and NULL, the integral floats next to ±2⁶³ and their
// ints — and distinct strings of length 0 to 17 hash apart, so no byte
// before, at or past a word boundary is dropped.
func TestHashInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]types.Value, 600)
	for i := range vals {
		vals[i] = hashSample(rng)
	}
	identical := 0
	for _, a := range vals {
		for _, b := range vals {
			if types.Identical(a, b) {
				identical++
				if a.Hash() != b.Hash() {
					t.Fatalf("types.Identical(%v, %v) but hashes %#x and %#x", a, b, a.Hash(), b.Hash())
				}
			}
		}
	}
	if identical <= len(vals) {
		t.Fatalf("only %d identical pairs: the sample tests nothing beyond reflexivity", identical)
	}
	nan := types.NewFloat(math.NaN()).Hash()
	for _, bits := range []uint64{0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0x7fffffffffffffff, 0xffffffffffffffff} {
		if h := types.NewFloat(math.Float64frombits(bits)).Hash(); h != nan {
			t.Errorf("NaN %#x hashes %#x, NaN %#x", bits, h, nan)
		}
	}
	if types.Null().Hash() != (types.Value{}).Hash() {
		t.Error("NULL hashes two ways")
	}
	strs := map[string]uint64{}
	for len(strs) < 3000 {
		b := make([]byte, rng.Intn(18))
		rng.Read(b)
		strs[string(b)] = types.NewString(string(b)).Hash()
	}
	seen := map[uint64]string{}
	for s, h := range strs {
		if o, ok := seen[h]; ok {
			t.Fatalf("strings %q and %q both hash %#x", s, o, h)
		}
		seen[h] = s
	}
	for _, s := range []string{"", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq"} {
		if types.NewString(s).Hash() == types.NewString(s+"\x00").Hash() {
			t.Errorf("%q and %q hash alike: the tail's length is lost", s, s+"\x00")
		}
	}
}

// TestHashMoreContinuesTheKey: a key of a row's columns a then b hashes
// as the hash of a continued over b, NULL-skipping or not.
func TestHashMoreContinuesTheKey(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, skipNulls := range []bool{false, true} {
		ix := types.NewRowIndex(nil, nil, skipNulls, 0)
		for i := 0; i < 2000; i++ {
			row := make([]types.Value, 5)
			for c := range row {
				row[c] = hashSample(rng)
			}
			cols := rng.Perm(5)[:rng.Intn(6)]
			k := rng.Intn(len(cols) + 1)
			whole, wok := ix.Hash(row, cols)
			prefix, pok := ix.Hash(row, cols[:k])
			if !pok {
				continue
			}
			if got, ok := ix.HashMore(prefix, row, cols[k:]); got != whole || ok != wok {
				t.Fatalf("skipNulls=%v row %s cols %v split at %d: continued %#x, %v; whole %#x, %v",
					skipNulls, types.FormatTuple(row), cols, k, got, ok, whole, wok)
			}
			if got, _ := ix.Hash(row, nil); !skipNulls && got != types.HashTuple(row) {
				t.Fatalf("Hash of the whole row %#x, HashTuple %#x", got, types.HashTuple(row))
			}
		}
	}
}

// TestRowIndexProbeSteps: a probe for a present key walks at most 1.5
// entries on average, over the keys 0..n-1 (r.a1) and over RST's s.b2,
// each indexed once per distinct key in an index sized for them — as a
// grouping table is — and as a join build over every row of s. A mix
// that leaves small integers' high bits alike piles them into few slots.
func TestRowIndexProbeSteps(t *testing.T) {
	const n = 5000
	seq := make([][]types.Value, n)
	for i := range seq {
		seq[i] = []types.Value{types.NewInt(int64(i))}
	}
	cat := catalog.New()
	if err := datagen.LoadRST(cat, datagen.RSTConfig{SFR: 0.5, SFS: 0.5, SFT: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := cat.Lookup("s")
	if err != nil {
		t.Fatal(err)
	}
	b2 := []int{1}
	groups := types.NewRowIndex(s.Rel.Tuples, b2, true, 0)
	for i := range s.Rel.Tuples {
		groups.FindOrAdd(int32(i))
	}
	sized := types.NewRowIndex(s.Rel.Tuples, b2, true, groups.Len())
	build := types.NewRowIndex(s.Rel.Tuples, b2, true, len(s.Rel.Tuples))
	for i, row := range s.Rel.Tuples {
		sized.FindOrAdd(int32(i))
		h, _ := build.Hash(row, b2)
		build.Add(int32(i), h)
	}
	ints := types.NewRowIndex(seq, nil, false, n)
	for i := range seq {
		ints.FindOrAdd(int32(i))
	}
	for _, c := range []struct {
		name string
		ix   *types.RowIndex
		cols []int
	}{{"0..n-1", ints, nil}, {"s.b2 grouped", sized, b2}, {"s.b2 join build", build, b2}} {
		steps := 0
		for e := 0; e < c.ix.Len(); e++ {
			steps += c.ix.ProbeSteps(c.ix.Row(int32(e)), c.cols)
		}
		avg := float64(steps) / float64(c.ix.Len())
		t.Logf("%s: %d keys, %.3f entries walked per probe", c.name, c.ix.Len(), avg)
		if avg > 1.5 {
			t.Errorf("%s: a probe walks %.3f entries on average, want at most 1.5", c.name, avg)
		}
	}
}
