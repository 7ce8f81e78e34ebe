package disqo

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"disqo/internal/exec"
)

// ErrOverloaded is returned (wrapped in a *QueryError) when the
// admission gate sheds a query: the concurrent-query limit is reached,
// the FIFO wait queue is full, or the wait budget (WithAdmissionWait)
// expired before a slot opened. It signals transient overload, not a
// broken query — retry with backoff via Retry:
//
//	res, err := disqo.Retry(ctx, disqo.DefaultRetryPolicy(),
//		func() (*disqo.Result, error) { return db.Query(sql) })
var ErrOverloaded = errors.New("disqo: overloaded, too many concurrent queries")

// ErrTupleLimit is the documented alias DESIGN.md uses for
// ErrMemoryLimit: the error returned when a query materializes more
// tuples than its WithTupleLimit budget (or the DB-wide
// WithSharedTupleLimit budget) allows. errors.Is(err, ErrTupleLimit)
// and errors.Is(err, ErrMemoryLimit) are interchangeable.
var ErrTupleLimit = exec.ErrMemoryLimit

// PanicError is a panic recovered inside the executor (bad tuple,
// operator bug, injected fault) and converted to an error; Stack holds
// the goroutine stack captured at the recovery point. It always arrives
// wrapped in a *QueryError; unwrap with errors.As.
type PanicError = exec.PanicError

// QueryError is the error Query, QueryContext, and Analyze return when
// execution fails (as opposed to parsing or planning, which return
// their own errors). It carries enough context to log a production
// failure usefully: the query text, the strategy, how long execution
// ran, and — when the failure is attributable — the physical plan node
// it happened at, using the same dense node IDs EXPLAIN ANALYZE prints.
//
// The underlying cause stays reachable through errors.Is / errors.As:
// ErrTimeout, ErrMemoryLimit, context.Canceled, context.DeadlineExceeded,
// and *PanicError all resolve through the wrapper.
type QueryError struct {
	Query    string        // the SQL text as submitted
	Strategy Strategy      // the strategy that was executing
	Elapsed  time.Duration // time from the end of planning until the failure surfaced
	NodeID   int           // failing physical node ID, -1 if unattributed
	Op       string        // failing operator's label, "" if unattributed
	Err      error         // the underlying cause
}

func (e *QueryError) Error() string {
	q := strings.Join(strings.Fields(e.Query), " ")
	if len(q) > 80 {
		q = q[:77] + "..."
	}
	at := ""
	if e.NodeID >= 0 {
		at = fmt.Sprintf(" at node %d (%s)", e.NodeID, e.Op)
	}
	return fmt.Sprintf("disqo: query %q [%s] failed%s after %s: %v",
		q, e.Strategy, at, e.Elapsed.Round(time.Microsecond), e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// wrapQueryError converts an execution failure into a *QueryError,
// pulling the node attribution out of the executor's *OpError wrapper
// (the plain cause remains below it in the unwrap chain).
func wrapQueryError(sql string, cfg queryConfig, elapsed time.Duration, err error) error {
	if err == nil {
		return nil
	}
	qe := &QueryError{
		Query:    sql,
		Strategy: cfg.strategy,
		Elapsed:  elapsed,
		NodeID:   -1,
		Err:      err,
	}
	var oe *exec.OpError
	if errors.As(err, &oe) {
		qe.NodeID, qe.Op = oe.NodeID, oe.Op
	}
	return qe
}
