// Snapshot codec: a compact, deterministic binary encoding of a set of
// immutable table versions plus the catalog commit counter — the
// payload the checkpointer writes and crash recovery reads back. The
// encoding is append-only (AppendX functions grow a caller buffer) so
// the checkpointer can serialize a whole state into one allocation and
// checksum it as a unit; decoding consumes a []byte cursor and returns
// the remainder, failing loudly on any truncation or kind byte it does
// not understand rather than guessing.
//
// Table versions round-trip exactly, including the Version counter
// value each table was published at: the result cache keys on
// (name, Version), so a recovered catalog must resume with the same
// per-table versions — and the same commit counter — it crashed with,
// or post-recovery cache keys could collide with pre-crash ones.
package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"disqo/internal/storage"
	"disqo/internal/types"
)

// value kind tags in the encoded form. These mirror types.Kind today
// but are a separate namespace on purpose: the on-disk format must not
// silently shift if the in-memory enum is ever reordered.
const (
	tagNull   = 0
	tagInt    = 1
	tagFloat  = 2
	tagString = 3
	tagBool   = 4
)

// AppendValue appends one scalar value to buf.
func AppendValue(buf []byte, v types.Value) []byte {
	switch v.Kind() {
	case types.KindNull:
		return append(buf, tagNull)
	case types.KindInt:
		buf = append(buf, tagInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case types.KindFloat:
		buf = append(buf, tagFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case types.KindString:
		s := v.Str()
		buf = append(buf, tagString)
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	case types.KindBool:
		buf = append(buf, tagBool)
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	}
	// Unreachable for values the engine produces; encode as NULL rather
	// than corrupting the stream with an unknown tag.
	return append(buf, tagNull)
}

// DecodeValue decodes one scalar value from buf, returning the value
// and the unconsumed remainder.
func DecodeValue(buf []byte) (types.Value, []byte, error) {
	if len(buf) < 1 {
		return types.Value{}, nil, fmt.Errorf("catalog: truncated value")
	}
	tag, buf := buf[0], buf[1:]
	switch tag {
	case tagNull:
		return types.Null(), buf, nil
	case tagInt:
		if len(buf) < 8 {
			return types.Value{}, nil, fmt.Errorf("catalog: truncated int value")
		}
		return types.NewInt(int64(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case tagFloat:
		if len(buf) < 8 {
			return types.Value{}, nil, fmt.Errorf("catalog: truncated float value")
		}
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case tagString:
		n, rest, err := DecodeLen(buf, "string value")
		if err != nil {
			return types.Value{}, nil, err
		}
		if len(rest) < n {
			return types.Value{}, nil, fmt.Errorf("catalog: truncated string value")
		}
		return types.NewString(string(rest[:n])), rest[n:], nil
	case tagBool:
		if len(buf) < 1 {
			return types.Value{}, nil, fmt.Errorf("catalog: truncated bool value")
		}
		return types.NewBool(buf[0] != 0), buf[1:], nil
	}
	return types.Value{}, nil, fmt.Errorf("catalog: unknown value tag %d", tag)
}

// AppendRow appends one tuple (without an arity prefix — the table
// codec knows the column count).
func AppendRow(buf []byte, row []types.Value) []byte {
	for _, v := range row {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeRow decodes an arity-n tuple from buf.
func DecodeRow(buf []byte, arity int) ([]types.Value, []byte, error) {
	row := make([]types.Value, arity)
	var err error
	for i := 0; i < arity; i++ {
		row[i], buf, err = DecodeValue(buf)
		if err != nil {
			return nil, nil, err
		}
	}
	return row, buf, nil
}

// AppendString appends a length-prefixed string — the form the table
// codec and the WAL's binary record bodies share.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeString decodes a length-prefixed string, naming what it was
// reading when the buffer falls short.
func DecodeString(buf []byte, what string) (string, []byte, error) {
	n, rest, err := DecodeLen(buf, what)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < n {
		return "", nil, fmt.Errorf("catalog: truncated %s", what)
	}
	return string(rest[:n]), rest[n:], nil
}

// DecodeLen reads a uvarint length or element count and bounds it by
// the remaining buffer so a corrupt one cannot drive a giant allocation.
func DecodeLen(buf []byte, what string) (int, []byte, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("catalog: bad %s length", what)
	}
	rest := buf[n:]
	if u > uint64(len(rest))+1 {
		// +1 slack: counts (rows, columns) may legitimately exceed the
		// byte count only when their elements are zero-width, which no
		// element of this format is except NULL (1 byte). A count larger
		// than the remaining bytes is always corruption.
		return 0, nil, fmt.Errorf("catalog: %s length %d exceeds remaining %d bytes", what, u, len(rest))
	}
	return int(u), rest, nil
}

// AppendTable appends one immutable table version.
func AppendTable(buf []byte, t *Table) []byte {
	buf = AppendString(buf, t.Name)
	buf = binary.AppendUvarint(buf, uint64(len(t.Columns)))
	for _, c := range t.Columns {
		buf = AppendString(buf, c.Name)
		buf = append(buf, byte(c.Type))
	}
	buf = binary.AppendUvarint(buf, t.Version)
	buf = binary.AppendUvarint(buf, uint64(len(t.Rel.Tuples)))
	for _, row := range t.Rel.Tuples {
		buf = AppendRow(buf, row)
	}
	return buf
}

// DecodeTable decodes one table version, rebuilding its relation and
// qualified attribute schema from the column list.
func DecodeTable(buf []byte) (*Table, []byte, error) {
	name, buf, err := DecodeString(buf, "table name")
	if err != nil {
		return nil, nil, err
	}
	ncols, buf, err := DecodeLen(buf, "column count")
	if err != nil {
		return nil, nil, err
	}
	if ncols == 0 {
		return nil, nil, fmt.Errorf("catalog: table %q decoded with no columns", name)
	}
	cols := make([]Column, ncols)
	attrs := make([]string, ncols)
	for i := range cols {
		cname, rest, err := DecodeString(buf, "column name")
		if err != nil {
			return nil, nil, err
		}
		if len(rest) < 1 {
			return nil, nil, fmt.Errorf("catalog: truncated column type")
		}
		cols[i] = Column{Name: cname, Type: types.Kind(rest[0])}
		attrs[i] = qualify(name, cname)
		buf = rest[1:]
	}
	version, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, fmt.Errorf("catalog: bad table version")
	}
	buf = buf[n:]
	nrows, buf, err := DecodeLen(buf, "row count")
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Name:    name,
		Columns: cols,
		Rel:     storage.NewRelation(storage.NewSchema(attrs...)),
		Version: version,
	}
	if nrows > 0 {
		tuples := make([][]types.Value, 0, nrows)
		for i := 0; i < nrows; i++ {
			var row []types.Value
			row, buf, err = DecodeRow(buf, ncols)
			if err != nil {
				return nil, nil, err
			}
			tuples = append(tuples, row)
		}
		t.Rel.Tuples = tuples
	}
	return t, buf, nil
}

// AppendState appends a whole catalog state: the commit counter plus
// every table version, in sorted-name order for deterministic bytes.
func AppendState(buf []byte, tables []*Table, version uint64) []byte {
	sorted := make([]*Table, len(tables))
	copy(sorted, tables)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(sorted)))
	for _, t := range sorted {
		buf = AppendTable(buf, t)
	}
	return buf
}

// DecodeState decodes a catalog state encoded by AppendState. The whole
// buffer must be consumed: trailing garbage is corruption, not slack.
func DecodeState(buf []byte) ([]*Table, uint64, error) {
	version, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("catalog: bad state version")
	}
	buf = buf[n:]
	ntables, buf, err := DecodeLen(buf, "table count")
	if err != nil {
		return nil, 0, err
	}
	tables := make([]*Table, 0, ntables)
	for i := 0; i < ntables; i++ {
		var t *Table
		t, buf, err = DecodeTable(buf)
		if err != nil {
			return nil, 0, err
		}
		tables = append(tables, t)
	}
	if len(buf) != 0 {
		return nil, 0, fmt.Errorf("catalog: %d trailing bytes after state", len(buf))
	}
	return tables, version, nil
}

// Tables returns the snapshot's pinned table versions in sorted-name
// order — the checkpointer's unit of serialization.
func (s *Snapshot) Tables() []*Table {
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Restore replaces the catalog's entire state — tables, views and the
// commit counter they were published under — in one commit: recovery's
// first step, before WAL replay resumes normal copy-on-write mutation
// from that counter, and a replica's snapshot install, where a
// concurrent reader pins the old state or the new, never a mix.
//
// Every definition may change, so the schema epoch moves past the epoch
// of the state replaced — a plan keyed before a replica's snapshot
// install cannot match after it — and past the restored commit counter,
// so a recovered catalog's epochs start beyond the checkpoint's commits.
// Epochs are not persisted: no plan outlives its process.
func (c *Catalog) Restore(tables []*Table, views []*View, version uint64) {
	next := &Snapshot{
		tables:  make(map[string]*Table, len(tables)),
		views:   make(map[string]*View, len(views)),
		version: version,
	}
	for _, t := range tables {
		next.tables[t.Name] = t
	}
	for _, v := range views {
		next.views[v.Name] = v
	}
	c.mu.Lock()
	next.epoch = max(c.cur.Load().epoch, version) + 1
	c.cur.Store(next)
	c.mu.Unlock()
}
