package telemetry

import (
	"sync"
	"time"
)

// SlowQuery is one captured offender: everything needed to reconstruct
// why a query was slow after the fact, including the ANALYZE-annotated
// physical plan when metrics were collected.
type SlowQuery struct {
	Time     time.Time     `json:"time"`
	SQL      string        `json:"sql"`
	Strategy string        `json:"strategy"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Rows     int64         `json:"rows"`
	// Err is set when the slow query also failed (e.g. a timeout after
	// grinding past the threshold).
	Err string `json:"err,omitempty"`
	// Plan is the annotated physical plan (est vs actual rows per
	// operator), empty when metrics were unavailable.
	Plan string `json:"plan,omitempty"`
}

// slowLog is a fixed-capacity ring of the most recent slow queries.
// Capture is rare by construction (only queries over the threshold),
// so a plain mutex is fine.
type slowLog struct {
	mu    sync.Mutex
	buf   []SlowQuery
	next  int   // buf index the next capture overwrites
	total int64 // captures ever made, including overwritten ones
}

func (l *slowLog) init(capacity int) {
	l.buf = make([]SlowQuery, 0, capacity)
}

func (l *slowLog) record(q SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, q)
		return
	}
	if cap(l.buf) == 0 {
		return
	}
	l.buf[l.next] = q
	l.next = (l.next + 1) % cap(l.buf)
}

// snapshot returns the ring's contents newest-first plus the all-time
// capture count.
func (l *slowLog) snapshot() ([]SlowQuery, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == 0 {
		return nil, l.total
	}
	out := make([]SlowQuery, 0, len(l.buf))
	// Once full, the entry before next is the newest; while filling,
	// next stays 0 and the newest is the last appended.
	start := l.next - 1
	if start < 0 {
		start = len(l.buf) - 1
	}
	for i := 0; i < len(l.buf); i++ {
		out = append(out, l.buf[(start-i+len(l.buf))%len(l.buf)])
	}
	return out, l.total
}

func (l *slowLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	l.next = 0
	l.total = 0
}
