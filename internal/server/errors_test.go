package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"disqo"
	"disqo/internal/wire"
)

// TestTypedErrorsSurviveTheWire: errorFrom (the server's map from engine
// errors to wire kinds) and disqo.ServerError.Is (the client's map back)
// are kept by hand, each on its side of the wire. Every sentinel a
// client may test for comes back as itself — bare, wrapped in the
// *disqo.QueryError an execution failure carries, or wrapped once more —
// and as no other sentinel.
func TestTypedErrorsSurviveTheWire(t *testing.T) {
	sentinels := []error{
		disqo.ErrOverloaded,
		disqo.ErrClosed,
		disqo.ErrTimeout,
		context.DeadlineExceeded,
		disqo.ErrMemoryLimit,
		context.Canceled,
		disqo.ErrWALSealed,
	}
	// The kinds that answer to two sentinels: a timeout is a deadline.
	same := map[error]error{disqo.ErrTimeout: context.DeadlineExceeded, context.DeadlineExceeded: disqo.ErrTimeout}
	for _, s := range sentinels {
		for _, err := range []error{
			s,
			&disqo.QueryError{NodeID: -1, Err: s},
			fmt.Errorf("serving: %w", &disqo.QueryError{NodeID: 3, Op: "Filter", Err: s}),
		} {
			we := errorFrom(err)
			got := &disqo.ServerError{Kind: we.Kind, Message: we.Message}
			if !errors.Is(got, s) {
				t.Errorf("%v: kind %q does not satisfy errors.Is with its sentinel", err, we.Kind)
			}
			for _, other := range sentinels {
				if other != s && other != same[s] && errors.Is(got, other) {
					t.Errorf("%v: kind %q also satisfies errors.Is with %v", err, we.Kind, other)
				}
			}
		}
	}

	// An execution failure whose cause no sentinel names is a query
	// error, and comes back as no sentinel.
	we := errorFrom(&disqo.QueryError{NodeID: -1, Err: errors.New("scalar subquery returned 2 rows")})
	if we.Kind != wire.KindQuery {
		t.Errorf("an unnamed execution failure maps to %q, want %q", we.Kind, wire.KindQuery)
	}
	for _, s := range sentinels {
		if errors.Is(&disqo.ServerError{Kind: we.Kind}, s) {
			t.Errorf("kind %q satisfies errors.Is with %v", we.Kind, s)
		}
	}

	// A parse or plan failure arrives without a *QueryError: the
	// statement is wrong, and retrying cannot help.
	if we := errorFrom(errors.New("sql: syntax error")); we.Kind != wire.KindInvalid {
		t.Errorf("a plain error maps to %q, want %q", we.Kind, wire.KindInvalid)
	}
}
