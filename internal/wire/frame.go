package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"disqo/internal/types"
)

// Frame is one result set in the columnar binary layout the package
// comment gives. Being a []byte, it travels inside the JSON response as
// a base64 string.
type Frame []byte

// Column kind bytes. They mirror types.Kind today but are the protocol's
// own namespace, like the snapshot codec's tags: the wire format must
// not shift if the in-memory enum is ever reordered.
const (
	kindNull   = 0 // every row NULL: nothing follows the bitmap
	kindInt    = 1
	kindFloat  = 2
	kindString = 3
	kindBool   = 4
	kindMixed  = 5 // a kind byte per non-NULL row precedes the values
)

func kindOf(v types.Value) byte {
	switch v.Kind() {
	case types.KindInt:
		return kindInt
	case types.KindFloat:
		return kindFloat
	case types.KindString:
		return kindString
	case types.KindBool:
		return kindBool
	}
	return kindNull
}

// columnKind names a column by the set of value kinds it holds, one bit
// per kind byte.
func columnKind(seen uint8) byte {
	seen &^= 1 << kindNull
	switch {
	case seen == 0:
		return kindNull
	case seen&(seen-1) == 0:
		return byte(bits.TrailingZeros8(seen))
	}
	return kindMixed
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func zigzag(i int64) uint64 { return uint64(i<<1) ^ uint64(i>>63) }

// valueSize is the bytes appendValue writes for v.
func valueSize(v types.Value) int {
	switch v.Kind() {
	case types.KindInt:
		i, _ := v.IntOk()
		return uvarintLen(zigzag(i))
	case types.KindFloat:
		return 8
	case types.KindString:
		s, _ := v.StrOk()
		return uvarintLen(uint64(len(s))) + len(s)
	case types.KindBool:
		return 1
	}
	return 0
}

func appendValue(f []byte, v types.Value) []byte {
	switch v.Kind() {
	case types.KindInt:
		i, _ := v.IntOk()
		return binary.AppendUvarint(f, zigzag(i))
	case types.KindFloat:
		x, _ := v.FloatOk()
		return binary.LittleEndian.AppendUint64(f, math.Float64bits(x))
	case types.KindString:
		s, _ := v.StrOk()
		return append(binary.AppendUvarint(f, uint64(len(s))), s...)
	case types.KindBool:
		if b, _ := v.BoolOk(); b {
			return append(f, 1)
		}
		return append(f, 0)
	}
	return f
}

// EncodeRows encodes a query result as one frame: rectangular rows at
// least one column wide, as every result is. No rows encode as the empty
// frame. It sizes the frame exactly in a first pass, so the frame is one
// allocation.
func EncodeRows(rows [][]types.Value) Frame {
	if len(rows) == 0 {
		return nil
	}
	ncol := len(rows[0])
	bitmap := (len(rows) + 7) / 8
	kinds := make([]byte, ncol)
	size := uvarintLen(uint64(len(rows))) + uvarintLen(uint64(ncol))
	for j := range kinds {
		var seen uint8
		nonNull := 0
		for _, row := range rows {
			v := row[j]
			seen |= 1 << kindOf(v)
			if !v.IsNull() {
				nonNull++
				size += valueSize(v)
			}
		}
		kinds[j] = columnKind(seen)
		size += 1 + bitmap
		if kinds[j] == kindMixed {
			size += nonNull
		}
	}
	f := make([]byte, 0, size)
	f = binary.AppendUvarint(f, uint64(len(rows)))
	f = binary.AppendUvarint(f, uint64(ncol))
	for j, kind := range kinds {
		f = append(f, kind)
		nulls := len(f)
		f = append(f, make([]byte, bitmap)...)
		if kind == kindMixed {
			for _, row := range rows {
				if v := row[j]; !v.IsNull() {
					f = append(f, kindOf(v))
				}
			}
		}
		for i, row := range rows {
			if v := row[j]; v.IsNull() {
				f[nulls+i/8] |= 1 << (i % 8)
			} else {
				f = appendValue(f, v)
			}
		}
	}
	return f
}

// DecodeRows decodes a frame into rows. It accepts exactly what
// EncodeRows produces — every other byte string is an error, so a frame
// it accepts re-encodes to itself — and allocates one value slab, one
// row-header slice and, at the first string value, one string(f) that
// every string value slices from. Nothing is allocated per value.
func DecodeRows(f Frame) ([][]types.Value, error) {
	if len(f) == 0 {
		return [][]types.Value{}, nil
	}
	d := decoder{f: f}
	nrow, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ncol, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nrow == 0 || ncol == 0 {
		return nil, malformed("a non-empty frame holds %d rows of %d columns", nrow, ncol)
	}
	// Every value costs at least its bit in a null bitmap, so a frame
	// holds at most 8·len(f) values. Checking that before allocating
	// bounds what a hostile header can make the decoder allocate by the
	// frame's own length.
	if limit := 8 * uint64(len(f)); ncol > limit || nrow > limit/ncol {
		return nil, malformed("%d rows of %d columns cannot fit in %d bytes", nrow, ncol, len(f))
	}
	nr, nc := int(nrow), int(ncol)
	slab := make([]types.Value, nr*nc)
	rows := make([][]types.Value, nr)
	for i := range rows {
		rows[i] = slab[i*nc : (i+1)*nc : (i+1)*nc]
	}
	for j := range nc {
		if err := d.column(slab[j:], nr, nc); err != nil {
			return nil, err
		}
	}
	if d.pos != len(f) {
		return nil, malformed("%d trailing bytes", len(f)-d.pos)
	}
	return rows, nil
}

// decoder is a cursor over one frame.
type decoder struct {
	f   Frame
	pos int
	s   string // string(f), made at the first string value
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("wire: malformed frame: "+format, args...)
}

func (d *decoder) take(n int) ([]byte, error) {
	if n > len(d.f)-d.pos {
		return nil, malformed("truncated at byte %d", d.pos)
	}
	b := d.f[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// uvarint reads a minimally encoded uvarint: a longer encoding of the
// same number would not re-encode to the same bytes.
func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.f[d.pos:])
	if n <= 0 || (n > 1 && d.f[d.pos+n-1] == 0) {
		return 0, malformed("bad varint at byte %d", d.pos)
	}
	d.pos += n
	return x, nil
}

// column decodes one column of nr rows into col[0], col[nc], col[2·nc], ...
func (d *decoder) column(col []types.Value, nr, nc int) error {
	kb, err := d.take(1)
	if err != nil {
		return err
	}
	kind := kb[0]
	nulls, err := d.take((nr + 7) / 8)
	if err != nil {
		return err
	}
	nonNull := nr
	for _, b := range nulls {
		nonNull -= bits.OnesCount8(b)
	}
	switch {
	case kind > kindMixed:
		return malformed("unknown column kind %d", kind)
	case nr%8 != 0 && nulls[len(nulls)-1]>>(nr%8) != 0:
		return malformed("null bitmap padding set")
	case (kind == kindNull) != (nonNull == 0):
		return malformed("column kind %d with %d non-NULL rows", kind, nonNull)
	}
	var kinds []byte
	if kind == kindMixed {
		if kinds, err = d.take(nonNull); err != nil {
			return err
		}
		var seen uint8
		for _, k := range kinds {
			if k == kindNull || k >= kindMixed {
				return malformed("bad value kind %d in a mixed column", k)
			}
			seen |= 1 << k
		}
		if columnKind(seen) != kindMixed {
			return malformed("mixed column of one kind")
		}
	}
	for i := range nr {
		if nulls[i/8]&(1<<(i%8)) != 0 {
			continue
		}
		k := kind
		if kinds != nil {
			k, kinds = kinds[0], kinds[1:]
		}
		if col[i*nc], err = d.value(k); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) value(kind byte) (types.Value, error) {
	switch kind {
	case kindInt:
		u, err := d.uvarint()
		return types.NewInt(int64(u>>1) ^ -int64(u&1)), err // un-zigzag
	case kindFloat:
		b, err := d.take(8)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case kindString:
		n, err := d.uvarint()
		if err != nil {
			return types.Value{}, err
		}
		if n > uint64(len(d.f)-d.pos) {
			return types.Value{}, malformed("string of %d bytes truncated at byte %d", n, d.pos)
		}
		if d.s == "" {
			d.s = string(d.f)
		}
		s := d.s[d.pos : d.pos+int(n)]
		d.pos += int(n)
		return types.NewString(s), nil
	case kindBool:
		b, err := d.take(1)
		if err != nil {
			return types.Value{}, err
		}
		if b[0] > 1 {
			return types.Value{}, malformed("bool byte %d", b[0])
		}
		return types.NewBool(b[0] == 1), nil
	}
	return types.Value{}, malformed("value kind %d", kind)
}
