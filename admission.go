package disqo

import (
	"context"
	"sync"
	"time"
)

// gate is the DB's admission controller: a bounded concurrent-query
// counter with a context-aware FIFO wait queue. At most max queries
// execute at once; up to maxQueue more wait their turn in arrival
// order, until a slot opens or their context is done. A query that
// finds the queue full is shed with ErrOverloaded instead of piling
// onto an already saturated engine. Slots hand over directly from a
// finishing query to the head waiter, so admission is strictly FIFO and
// a continuous load never starves a waiter.
type gate struct {
	mu     sync.Mutex
	max    int // concurrent-execution slots
	maxQ   int // wait-queue bound
	active int
	queue  []chan struct{} // FIFO of waiters; a slot grant closes the channel

	// Cumulative telemetry, guarded by mu. admitted counts granted
	// slots; shed counts ErrOverloaded rejections (a full queue; a
	// waiter whose context ends is neither); waitNanos sums time spent
	// queued, by every waiter, however its wait ended.
	admitted  int64
	shed      int64
	waitNanos int64
}

// newGate builds a gate; max <= 0 disables admission control (the
// returned nil gate admits everything).
func newGate(max, maxQueue int) *gate {
	if max <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &gate{max: max, maxQ: maxQueue}
}

// acquire claims an execution slot, waiting in FIFO order behind a full
// gate. It returns ErrOverloaded when the wait queue is full, and
// ctx.Err() when the caller's context is done first. A nil gate admits
// immediately.
func (g *gate) acquire(ctx context.Context) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	if g.active < g.max {
		g.active++
		g.admitted++
		g.mu.Unlock()
		return nil
	}
	if len(g.queue) >= g.maxQ {
		g.shed++
		g.mu.Unlock()
		return ErrOverloaded
	}
	ch := make(chan struct{})
	g.queue = append(g.queue, ch)
	g.mu.Unlock()
	queuedAt := time.Now()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-ch:
		g.noteWaitEnd(queuedAt, true)
		return nil
	case <-done:
		if g.abandon(ch) {
			g.noteWaitEnd(queuedAt, false)
			return ctx.Err()
		}
		g.noteWaitEnd(queuedAt, true)
		return nil
	}
}

// noteWaitEnd accounts the end of a queued wait: the time spent queued,
// plus whether it ended in a grant (a context cancellation is neither
// admitted nor shed).
func (g *gate) noteWaitEnd(queuedAt time.Time, admitted bool) {
	d := time.Since(queuedAt)
	g.mu.Lock()
	g.waitNanos += int64(d)
	if admitted {
		g.admitted++
	}
	g.mu.Unlock()
}

// abandon removes a waiter from the queue. It returns false when a
// release already granted the slot to ch — the grant and the abandon
// race under one mutex, so exactly one wins — in which case the caller
// owns the slot after all.
func (g *gate) abandon(ch chan struct{}) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, c := range g.queue {
		if c == ch {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			return true
		}
	}
	return false
}

// release returns a slot: the head waiter inherits it directly (the
// active count is unchanged — ownership transfers), or the slot opens
// up when nobody waits.
func (g *gate) release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if len(g.queue) > 0 {
		ch := g.queue[0]
		g.queue = g.queue[1:]
		g.mu.Unlock()
		close(ch)
		return
	}
	g.active--
	g.mu.Unlock()
}

// gateStats is the gate's full telemetry snapshot.
type gateStats struct {
	max, maxQueued int
	active, queued int
	admitted, shed int64
	waitNanos      int64
}

// stats snapshots the gate's gauges and counters. A nil gate reports
// zeros.
func (g *gate) stats() gateStats {
	if g == nil {
		return gateStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return gateStats{
		max: g.max, maxQueued: g.maxQ,
		active: g.active, queued: len(g.queue),
		admitted: g.admitted, shed: g.shed, waitNanos: g.waitNanos,
	}
}

// resetStats zeroes the cumulative counters (the gauges are
// instantaneous and unaffected). A nil gate is a no-op.
func (g *gate) resetStats() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.admitted, g.shed, g.waitNanos = 0, 0, 0
	g.mu.Unlock()
}
