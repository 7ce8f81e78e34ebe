package disqo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestRetrySucceedsAfterSheds: transient ErrOverloaded failures are
// retried and the eventual success is returned.
func TestRetrySucceedsAfterSheds(t *testing.T) {
	calls := 0
	p := DefaultRetryPolicy()
	p.BaseDelay = time.Microsecond
	v, err := Retry(context.Background(), p, func() (int, error) {
		calls++
		if calls < 3 {
			return 0, fmt.Errorf("wrapped: %w", ErrOverloaded)
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("got (%d, %v), want (42, nil)", v, err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

// TestRetryNonRetryableFailsFast: errors outside the policy's RetryIf
// set surface immediately with no further attempts.
func TestRetryNonRetryableFailsFast(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := Retry(context.Background(), DefaultRetryPolicy(), func() (int, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want boom after 1 call", err, calls)
	}
}

// TestRetryExhaustsAttempts: the last error is returned after
// MaxAttempts total calls.
func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, Multiplier: 2}
	_, err := Retry(context.Background(), p, func() (int, error) {
		calls++
		return 0, ErrOverloaded
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}

// TestRetryCtxCancelMidBackoff: a cancellation that lands while Retry
// sleeps between attempts aborts the wait promptly, and the returned
// error carries both the cancellation and the last attempt's error.
func TestRetryCtxCancelMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Hour, Multiplier: 2}
	calls := 0
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Retry(ctx, p, func() (int, error) {
			calls++
			return 0, ErrOverloaded
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the first attempt enter its hour-long backoff
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Retry did not abort the backoff on cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want the last attempt's ErrOverloaded joined in", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

// TestRetryCtxAlreadyDone: a pre-cancelled context makes no calls.
func TestRetryCtxAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Retry(ctx, DefaultRetryPolicy(), func() (int, error) {
		calls++
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// TestRetryDelayCapAndJitterBounds: generated delays respect MaxDelay
// and the jitter envelope. Exercised through a fake clock is overkill —
// instead run with microsecond delays and just assert termination and
// attempt count under extreme jitter settings.
func TestRetryDelayCapAndJitterBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: time.Microsecond,
		MaxDelay: 2 * time.Microsecond, Multiplier: 100, Jitter: 5 /* clamped to 1 */}
	calls := 0
	start := time.Now()
	_, err := Retry(context.Background(), p, func() (int, error) {
		calls++
		return 0, ErrOverloaded
	})
	if !errors.Is(err, ErrOverloaded) || calls != 6 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	// 5 backoffs capped at 2µs with jitter ≤ 100% can't exceed 20µs of
	// nominal sleep; allow generous scheduler slack.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("delay cap ignored: %v elapsed", elapsed)
	}
}

// TestRetryReturnsEarlyBeforeDeadline: when the next backoff would
// sleep past the context deadline, Retry returns immediately instead of
// parking until the deadline fires — the caller gets its remaining
// budget back, with DeadlineExceeded and the last attempt's error
// joined.
func TestRetryReturnsEarlyBeforeDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 2 * time.Hour, Multiplier: 2}
	calls := 0
	start := time.Now()
	_, err := Retry(ctx, p, func() (int, error) {
		calls++
		return 0, ErrOverloaded
	})
	elapsed := time.Since(start)
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded joined", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want the last attempt's ErrOverloaded joined", err)
	}
	// The whole point: we did NOT sleep toward the 1h deadline (nor the
	// 2h backoff). Seconds of slack for a loaded CI box.
	if elapsed > 30*time.Second {
		t.Fatalf("Retry slept %v instead of returning early", elapsed)
	}
}

// TestRetryAgainstGate drives a one-slot admission gate that sheds
// concurrent queries with ErrOverloaded, and Retry rides out the sheds.
func TestRetryAgainstGate(t *testing.T) {
	db, _ := Open(WithMaxConcurrent(1), withMaxQueued(-1), WithoutCache())
	defer db.Close()
	if err := db.CreateTable("r", []Column{{Name: "a", Type: TypeInt}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("r", []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	hold := make(chan struct{})
	go func() {
		// Occupy the only slot with a long query via the raw path.
		db.gate.acquire(nil)
		close(hold)
		<-stop
		db.gate.release()
	}()
	<-hold
	p := DefaultRetryPolicy()
	p.BaseDelay = time.Millisecond
	p.MaxAttempts = 3
	_, err := Retry(context.Background(), p, func() (*Result, error) {
		return db.Query("SELECT DISTINCT * FROM r")
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded while the slot is held, got %v", err)
	}
	close(stop)
	res, err := Retry(context.Background(), p, func() (*Result, error) {
		return db.Query("SELECT DISTINCT * FROM r")
	})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("after release: %v", err)
	}
}

// TestClientErrorsKeepCauseIdentity: a transport failure is an
// ErrConnection (what the retry layer classifies on) and still the
// error the network returned — errors.Is / errors.As see both.
func TestClientErrorsKeepCauseIdentity(t *testing.T) {
	// serve runs a one-connection-at-a-time server whose handler decides
	// how to misbehave.
	serve := func(handle func(net.Conn)) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				handle(conn)
				conn.Close()
			}
		}()
		return ln.Addr().String()
	}
	once := withClientRetry(RetryPolicy{MaxAttempts: 1})
	ping := func(addr string, opts ...ClientOption) error {
		c, err := Dial(addr, append(opts, once)...)
		if err != nil {
			return err
		}
		defer c.Close()
		_, err = c.Ping(context.Background())
		return err
	}
	readLine := func(conn net.Conn) { conn.Read(make([]byte, 4096)) }

	// Read: the server hangs up on the request.
	err := ping(serve(readLine))
	if !errors.Is(err, ErrConnection) || !errors.Is(err, io.EOF) {
		t.Errorf("hang-up: %v, want ErrConnection wrapping io.EOF", err)
	}

	// Malformed response.
	err = ping(serve(func(conn net.Conn) {
		readLine(conn)
		conn.Write([]byte("not json\n"))
	}))
	var syn *json.SyntaxError
	if !errors.Is(err, ErrConnection) || !errors.As(err, &syn) {
		t.Errorf("malformed response: %v, want ErrConnection wrapping a *json.SyntaxError", err)
	}

	// A well-formed line whose row frame is not: one row, one column of
	// kind 9, which no encoder writes.
	c, err := Dial(serve(func(conn net.Conn) {
		readLine(conn)
		conn.Write([]byte(`{"id":1,"ok":true,"rows":"AQEJAA=="}` + "\n"))
	}), once)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT 1"); !errors.Is(err, ErrConnection) || !strings.Contains(err.Error(), "malformed frame") {
		t.Errorf("malformed row frame: %v, want ErrConnection naming the malformed frame", err)
	}

	// Dial: nothing listens there any more.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = Dial(addr, once)
	var op *net.OpError
	if !errors.Is(err, ErrConnection) || !errors.As(err, &op) {
		t.Errorf("dial: %v, want ErrConnection wrapping a *net.OpError", err)
	}
}
