package storage

import "testing"

// TestSpanExtend: a slice grows in place only while it ends where its
// buffer's claimed part ends and the room holds the new entries; every
// other extend copies, exactly for an empty slice and with headroom
// otherwise, and every result is capped.
func TestSpanExtend(t *testing.T) {
	var none Span[int]
	a, sa := none.Extend(nil, 10)
	if len(a) != 10 || cap(a) != 10 {
		t.Fatalf("extending nothing by 10: len %d cap %d, want an exact 10", len(a), cap(a))
	}
	for i := range a {
		a[i] = i
	}
	b, sb := sa.Extend(a, 2) // no room: copies with headroom
	if &b[0] == &a[0] || cap(b) != 12 || len(sb.r.buf) != 12 || cap(sb.r.buf) < 16 {
		t.Fatalf("extending an exact slice: shared %v, len %d cap %d, room %d", &b[0] == &a[0], len(b), cap(b), cap(sb.r.buf)-12)
	}
	b[10], b[11] = 10, 11
	c, sc := sb.Extend(b, 1) // b ends at the claimed end: in place
	if &c[0] != &b[0] || len(c) != 13 || cap(c) != 13 {
		t.Fatalf("extending the last claim: shared %v, len %d cap %d", &c[0] == &b[0], len(c), cap(c))
	}
	c[12] = 12
	if d, _ := sb.Extend(b, 1); &d[0] == &b[0] || c[12] != 12 {
		t.Fatal("extending a superseded slice wrote into the buffer")
	}
	if f, _ := sc.Extend(c[:4:4], 1); &f[0] == &c[0] || c[4] != 4 {
		t.Fatal("extending a kept head run wrote into the buffer")
	}
	e, _ := sc.From(2).Extend(c[2:], 1) // c[2:], as a DELETE of the head keeps it
	if &e[0] != &c[2] || len(e) != 12 || cap(e) != 12 || e[10] != 12 {
		t.Fatalf("extending a kept tail run: shared %v, %v", &e[0] == &c[2], e)
	}
}
