package disqo

// Admission-control suite: unit tests for the FIFO gate itself, plus
// end-to-end tests that hold a real query mid-flight (via a blocking
// tracer) and assert the documented shedding behavior — immediate
// ErrOverloaded on a full queue, FIFO slot handoff, and a context that
// is cancelled or whose deadline passes while queued. All errors must
// arrive as *QueryError with the cause reachable via errors.Is.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disqo/internal/physical"
	"disqo/internal/testutil"
	"disqo/internal/types"
)

// blockTracer parks query execution at a chosen traced event, turning
// "a query is mid-flight" into a deterministic test state: started is
// closed when the query reaches the blocking site, and the query stays
// parked until release is closed. With onClose it parks at the SECOND
// OpClose — by then the first-finished operator's output has been pinned
// into the shared memo, so the parked query provably holds resident
// tuples; otherwise it parks at the first OpOpen, before any work.
type blockTracer struct {
	onClose bool
	closes  atomic.Int64
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockTracer(onClose bool) *blockTracer {
	return &blockTracer{onClose: onClose, started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockTracer) block() {
	b.once.Do(func() {
		close(b.started)
		<-b.release
	})
}

func (b *blockTracer) OpOpen(physical.Node) {
	if !b.onClose {
		b.block()
	}
}

func (b *blockTracer) OpMorsel(physical.Node, int, int) {}

func (b *blockTracer) OpClose(physical.Node, int64, time.Duration) {
	if b.onClose && b.closes.Add(1) >= 2 {
		b.block()
	}
}

const gateQuery = `SELECT DISTINCT * FROM k`

// smallDB builds a DB (with the given open options) holding one table k
// with rows two-column rows.
func gateDB(t testing.TB, rows int, opts ...OpenOption) *DB {
	t.Helper()
	db, _ := Open(opts...)
	cols := []Column{{Name: "v", Type: types.KindInt}, {Name: "w", Type: types.KindInt}}
	if err := db.CreateTable("k", cols); err != nil {
		t.Fatal(err)
	}
	batch := make([][]Value, rows)
	for i := range batch {
		batch[i] = []Value{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}
	}
	if err := db.Insert("k", batch...); err != nil {
		t.Fatal(err)
	}
	return db
}

// waitSaturation polls the gate until it reports the wanted load, so
// tests order events without sleeping blind.
func waitSaturation(t *testing.T, g *gate, active, queued int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := g.stats(); s.active == active && s.queued == queued {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	s := g.stats()
	t.Fatalf("gate never reached active=%d queued=%d (stuck at active=%d queued=%d)", active, queued, s.active, s.queued)
}

func TestGateNilAdmitsEverything(t *testing.T) {
	var g *gate
	if g := newGate(0, 10); g != nil {
		t.Fatal("max=0 should build a nil (unlimited) gate")
	}
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("nil gate refused admission: %v", err)
	}
	g.release()
	if s := g.stats(); s.active != 0 || s.queued != 0 {
		t.Fatalf("nil gate reports load %d/%d", s.active, s.queued)
	}
}

func TestGateShedsWhenQueueFull(t *testing.T) {
	g := newGate(1, 0)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	g.release()
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("slot freed but admission failed: %v", err)
	}
	g.release()
}

func TestGateFIFOHandoff(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := newGate(1, 2)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	for _, name := range []string{"first", "second"} {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.acquire(context.Background()); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			order <- name
			g.release()
		}()
		// Enqueue strictly in order: wait until this waiter is queued
		// before starting the next.
		want := 1
		if name == "second" {
			want = 2
		}
		waitSaturation(t, g, 1, want)
	}
	g.release()
	wg.Wait()
	if a, b := <-order, <-order; a != "first" || b != "second" {
		t.Fatalf("handoff order was %s, %s; want first, second", a, b)
	}
	if s := g.stats(); s.active != 0 || s.queued != 0 {
		t.Fatalf("gate not drained: active=%d queued=%d", s.active, s.queued)
	}
}

// TestGateDeadlineWhileQueued: a waiter whose context deadline passes
// leaves the queue with the context's error and is counted neither
// admitted nor shed; its time in the queue is still accounted.
func TestGateDeadlineWhileQueued(t *testing.T) {
	g := newGate(1, 2)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter returned %v, want context.DeadlineExceeded", err)
	}
	s := g.stats()
	if s.active != 1 || s.queued != 0 {
		t.Fatalf("expired waiter left load: active=%d queued=%d", s.active, s.queued)
	}
	if s.admitted != 1 || s.shed != 0 || s.waitNanos == 0 {
		t.Fatalf("expired waiter counted: admitted=%d shed=%d wait=%d, want 1, 0, >0", s.admitted, s.shed, s.waitNanos)
	}
	g.release()
	if s := g.stats(); s.active != 0 || s.queued != 0 {
		t.Fatalf("gate not drained: active=%d queued=%d", s.active, s.queued)
	}
}

func TestGateContextCancelWhileQueued(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	g := newGate(1, 2)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- g.acquire(ctx) }()
	waitSaturation(t, g, 1, 1)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	g.release()
	if s := g.stats(); s.active != 0 || s.queued != 0 {
		t.Fatalf("cancelled waiter left load: active=%d queued=%d", s.active, s.queued)
	}
}

// TestAdmissionShedsImmediately is the end-to-end shape of the queue-full
// path: one slot, no queue, one query parked mid-flight — the next Query
// call must return ErrOverloaded at once, wrapped in a *QueryError.
func TestAdmissionShedsImmediately(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 16, WithMaxConcurrent(1), withMaxQueued(-1))
	tr := newBlockTracer(false)
	done := make(chan error, 1)
	go func() {
		_, err := db.Query(gateQuery, WithTracer(tr))
		done <- err
	}()
	<-tr.started

	_, err := db.Query(gateQuery)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated DB returned %v, want ErrOverloaded", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("shed error %T is not a *QueryError: %v", err, err)
	}
	if qe.Query != gateQuery {
		t.Fatalf("shed *QueryError lost the query text: %q", qe.Query)
	}

	close(tr.release)
	if err := <-done; err != nil {
		t.Fatalf("parked query failed after release: %v", err)
	}
	// The slot is free again: admission must succeed now.
	if _, err := db.Query(gateQuery); err != nil {
		t.Fatalf("query after release failed: %v", err)
	}
}

// TestAdmissionQueueHandsOff verifies the happy path behind a full gate:
// a queued query waits (no shedding while the queue has room) and inherits
// the slot the moment the running query finishes.
func TestAdmissionQueueHandsOff(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 16, WithMaxConcurrent(1), withMaxQueued(4))
	tr := newBlockTracer(false)
	first := make(chan error, 1)
	go func() {
		_, err := db.Query(gateQuery, WithTracer(tr))
		first <- err
	}()
	<-tr.started

	second := make(chan error, 1)
	go func() {
		_, err := db.Query(gateQuery)
		second <- err
	}()
	waitSaturation(t, db.gate, 1, 1)

	select {
	case err := <-second:
		t.Fatalf("queued query returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(tr.release)
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("queued query after handoff: %v", err)
	}
}

// TestAdmissionDeadlineWhileQueued: a queued query whose context
// deadline passes leaves the queue with context.DeadlineExceeded (not
// ErrOverloaded) through the *QueryError wrapper, and the gate counts
// it neither admitted nor shed.
func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 16, WithMaxConcurrent(1))
	tr := newBlockTracer(false)
	done := make(chan error, 1)
	go func() {
		_, err := db.Query(gateQuery, WithTracer(tr))
		done <- err
	}()
	<-tr.started

	before := db.WorkloadStats().Admission
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := db.QueryContext(ctx, gateQuery)
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired wait returned %v, want context.DeadlineExceeded", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("expired wait error %T is not a *QueryError", err)
	}
	after := db.WorkloadStats().Admission
	if after.Admitted != before.Admitted || after.Shed != before.Shed || after.Queued != 0 {
		t.Fatalf("expired waiter counted: admitted %d→%d, shed %d→%d, queued %d",
			before.Admitted, after.Admitted, before.Shed, after.Shed, after.Queued)
	}

	close(tr.release)
	if err := <-done; err != nil {
		t.Fatalf("parked query failed: %v", err)
	}
}

// TestAdmissionContextCancelWhileQueued: cancelling a queued query's
// context surfaces context.Canceled (not ErrOverloaded) through the
// *QueryError wrapper.
func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 16, WithMaxConcurrent(1), withMaxQueued(4))
	tr := newBlockTracer(false)
	done := make(chan error, 1)
	go func() {
		_, err := db.Query(gateQuery, WithTracer(tr))
		done <- err
	}()
	<-tr.started

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, gateQuery)
		queued <- err
	}()
	waitSaturation(t, db.gate, 1, 1)
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued query returned %v, want context.Canceled", err)
	}

	close(tr.release)
	if err := <-done; err != nil {
		t.Fatalf("parked query failed: %v", err)
	}
}
