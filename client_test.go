package disqo

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"disqo/internal/wire"
)

// TestClientRequestTimeoutBoundsWait: the client's request timeout
// bounds its own wait, not only the server's work. Against a server
// that reads requests and never answers, Query fails with ErrTimeout
// once the timeout and the client's slack have passed; a timeout under
// a millisecond is sent as 1, not as 0 (unbounded); and SetTimeout
// changes the same default, with no round trip of its own.
func TestClientRequestTimeoutBoundsWait(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	// Room for every request the test sends (three), so no reader
	// blocks on one the test stops waiting for.
	frames := make(chan wire.Request, 8)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadBytes('\n')
					if err != nil {
						return
					}
					var req wire.Request
					json.Unmarshal(line, &req)
					frames <- req
				}
			}()
		}
	}()
	next := func() wire.Request {
		t.Helper()
		select {
		case req := <-frames:
			return req
		case <-time.After(5 * time.Second):
			t.Fatal("no request arrived")
			return wire.Request{}
		}
	}

	c, err := Dial(ln.Addr().String(), WithClientRequestTimeout(300*time.Microsecond),
		withClientRetry(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups, not defers, and in this order: the server's side closes
	// first, so a Query still waiting on it returns and Close can take
	// the client's lock.
	t.Cleanup(func() { c.Close() })
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Query("SELECT 1")
		done <- err
	}()
	if req := next(); req.TimeoutMS != 1 {
		t.Errorf("300µs request timeout sent as timeout_ms %d, want 1", req.TimeoutMS)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) || errors.Is(err, ErrConnection) {
			t.Errorf("unanswered query: %v, want ErrTimeout and no ErrConnection to retry", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Query still waiting 5s into a 300µs request timeout")
	}

	// SetTimeout sets the default each request carries; 0 clears it.
	for _, d := range []time.Duration{1500 * time.Millisecond, 0} {
		c.SetTimeout(d)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			_, err := c.QueryContext(ctx, "SELECT 1")
			done <- err
		}()
		// What is left of the timeout when the request is written:
		// the dial before it may take a few milliseconds.
		if req := next(); req.TimeoutMS > d.Milliseconds() || req.TimeoutMS < (d-100*time.Millisecond).Milliseconds() {
			t.Errorf("SetTimeout(%s): request carries timeout_ms %d", d, req.TimeoutMS)
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("SetTimeout(%s): cancelled query returned %v", d, err)
		}
	}
}

// TestSettingsAllOrNothing: With applies every pair or none, a copy is
// unaffected by a later With, and a session's options cost nothing to
// apply to a query.
func TestSettingsAllOrNothing(t *testing.T) {
	base, err := Settings{}.With(map[string]string{"strategy": "canonical"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []map[string]string{
		{"strategy": "canonical", "bogus": "x"},
		{"strategy": "canonical", "nulls": "4vl"},
	} {
		got, err := base.With(bad)
		if err == nil || got.String() != "canonical,3vl" {
			t.Errorf("With(%v) = %s, %v; want an error and canonical,3vl unchanged", bad, got, err)
		}
	}
	two, err := base.With(map[string]string{"nulls": "2vl"})
	if err != nil || two.String() != "canonical,2vl" || base.String() != "canonical,3vl" {
		t.Errorf("With(nulls=2vl) = %s (base %s), %v", two, base, err)
	}
	if n := len(two.Options()); n != 2 {
		t.Errorf("%d options, want one per setting", n)
	}
	if a := testing.AllocsPerRun(100, func() { _ = two.Options() }); a != 0 {
		t.Errorf("Options allocates %.0f objects", a)
	}
}
