package disqo

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"disqo/internal/exec"
	"disqo/internal/wire"
)

// Client is a connection to a disqod server (cmd/disqod), speaking the
// newline-delimited JSON protocol in internal/wire. It mirrors the
// embedded API where that makes sense — Query returns the same *Result
// a local DB would, with rows that round-trip byte-identically — and
// adds the two things a network client needs: typed server errors that
// still satisfy errors.Is against the engine's sentinels
// (ErrOverloaded, ErrTimeout, ...), and transparent reconnection.
//
// Reconnection uses Retry under the client's RetryPolicy: when a read
// path (Query, Ping, Prepare) fails at the transport layer, the client
// redials, replays its session state (defaults and prepared
// statements — the server-side session died with the connection), and
// retries. Exec is deliberately at-most-once: a write whose response
// was lost may or may not have applied, and silently re-sending it
// could double-apply; the caller gets ErrConnection and decides.
//
// A Client serializes its requests; share one per goroutine or accept
// the serialization.
type Client struct {
	addr string
	opts clientOptions

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	nextID uint64
	closed bool

	// Session state replayed after a reconnect.
	strategy  string
	nulls     string
	timeoutMS int64
	prepared  map[string]string
}

// ErrConnection is the transport-failure sentinel: dial, write, or
// read on the server connection failed (including a server that
// vanished mid-request). Wrapped errors carry the cause. Read-path
// calls retry these internally per the client's RetryPolicy before
// surfacing one.
var ErrConnection = errors.New("disqo: client connection failure")

// maxResponseFrame bounds one response line; results are unbounded in
// principle, so this is a sanity cap, not a protocol limit.
const maxResponseFrame = 1 << 30

type clientOptions struct {
	dialTimeout    time.Duration
	requestTimeout time.Duration
	retry          RetryPolicy
}

// ClientOption configures Dial.
type ClientOption func(*clientOptions)

// WithClientDialTimeout bounds each dial attempt (default 5s).
func WithClientDialTimeout(d time.Duration) ClientOption {
	return func(o *clientOptions) { o.dialTimeout = d }
}

// WithClientRequestTimeout sets a default per-request timeout, applied
// when the call's context carries no deadline. It bounds both the
// server-side execution (sent as the request's timeout) and the
// client-side wait. 0 (the default) means unbounded.
func WithClientRequestTimeout(d time.Duration) ClientOption {
	return func(o *clientOptions) { o.requestTimeout = d }
}

// WithClientRetry sets the transport-failure retry policy (attempts
// and backoff shape; the retry classifier is fixed to ErrConnection).
// The default is DefaultRetryPolicy.
func WithClientRetry(p RetryPolicy) ClientOption {
	return func(o *clientOptions) { o.retry = p }
}

// Dial connects to a disqod server. The returned client reconnects on
// transport failures; Close releases it.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	o := clientOptions{
		dialTimeout: 5 * time.Second,
		retry:       DefaultRetryPolicy(),
	}
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{addr: addr, opts: o, prepared: make(map[string]string)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// ServerError is a typed failure reported by the server. It satisfies
// errors.Is against the engine's sentinels — errors.Is(err,
// disqo.ErrOverloaded) works the same for a remote query as a local
// one — and keeps the failing node attribution a *QueryError would
// carry.
type ServerError struct {
	// Kind is the wire error kind ("overloaded", "timeout", ...).
	Kind    string
	Message string
	// Node and Op attribute an execution failure to a physical plan
	// node, when the server could; Node is 0 with Op "" otherwise.
	Node int
	Op   string
	// Strategy is the strategy that was executing, when known.
	Strategy string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("disqo: server error [%s]: %s", e.Kind, e.Message)
}

// Is maps wire kinds back onto the engine's sentinel errors, so
// errors.Is works across the network boundary.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Kind == wire.KindOverloaded
	case ErrClosed:
		return e.Kind == wire.KindClosed
	case ErrTimeout:
		return e.Kind == wire.KindTimeout
	case context.DeadlineExceeded:
		return e.Kind == wire.KindTimeout
	case context.Canceled:
		return e.Kind == wire.KindCanceled
	case ErrMemoryLimit: // == ErrTupleLimit
		return e.Kind == wire.KindMemory
	case ErrWALSealed:
		return e.Kind == wire.KindSealed
	}
	return false
}

// ServerStatus is a ping response; see Client.Ping.
type ServerStatus struct {
	// Role is "writer" or "replica".
	Role     string
	Draining bool
	Sessions int
	Conns    int
	// AppliedLSN and Staleness describe a replica's position: last WAL
	// record applied, and time since the writer was last heard from.
	AppliedLSN uint64
	Staleness  time.Duration
}

// Query executes a SELECT on the server. The result's rows are
// byte-identical to what the same query run against an embedded DB
// would return.
func (c *Client) Query(sql string) (*Result, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext is Query with cancellation: a context deadline becomes
// the request's server-side timeout, and cancellation tears the
// connection down, which aborts the server-side query within one
// morsel (the server watches the socket while executing).
func (c *Client) QueryContext(ctx context.Context, sql string) (*Result, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpQuery, SQL: sql}, true)
	if err != nil {
		return nil, err
	}
	return resultFrom(resp)
}

// QueryPrepared executes a statement previously registered with
// Prepare.
func (c *Client) QueryPrepared(ctx context.Context, name string) (*Result, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpQuery, Name: name}, true)
	if err != nil {
		return nil, err
	}
	return resultFrom(resp)
}

// Exec runs a DML/DDL statement and returns rows affected. Exec never
// retries transport failures: a lost response leaves the statement's
// fate unknown, and the caller — not the client — must decide whether
// re-sending is safe.
func (c *Client) Exec(sql string) (int, error) {
	resp, err := c.do(context.Background(), &wire.Request{Op: wire.OpExec, SQL: sql}, false)
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}

// Prepare registers sql under name in the server session (and locally,
// so a reconnect re-registers it).
func (c *Client) Prepare(name, sql string) error {
	_, err := c.do(context.Background(), &wire.Request{Op: wire.OpPrepare, Name: name, SQL: sql}, true)
	if err == nil {
		c.mu.Lock()
		c.prepared[name] = sql
		c.mu.Unlock()
	}
	return err
}

// ClosePrepared forgets a prepared statement.
func (c *Client) ClosePrepared(name string) error {
	c.mu.Lock()
	delete(c.prepared, name)
	c.mu.Unlock()
	_, err := c.do(context.Background(), &wire.Request{Op: wire.OpClose, Name: name}, true)
	return err
}

// SetStrategy makes s the session's default evaluation strategy.
func (c *Client) SetStrategy(s Strategy) error {
	return c.set(&wire.Request{Op: wire.OpSet, Strategy: string(s)}, func() { c.strategy = string(s) })
}

// SetNullMode makes m the session's default null semantics: "3vl"
// (SQL three-valued, the server default) or "2vl" (comparisons with
// NULL are false).
func (c *Client) SetNullMode(m NullMode) error {
	return c.set(&wire.Request{Op: wire.OpSet, Nulls: string(m)}, func() { c.nulls = string(m) })
}

// SetTimeout makes d the session's default per-request timeout; 0
// clears it.
func (c *Client) SetTimeout(d time.Duration) error {
	ms := d.Milliseconds()
	if d > 0 && ms == 0 {
		ms = 1
	}
	if d <= 0 {
		ms = -1
	}
	return c.set(&wire.Request{Op: wire.OpSet, TimeoutMS: ms}, func() { c.timeoutMS = max(ms, 0) })
}

func (c *Client) set(req *wire.Request, commit func()) error {
	_, err := c.do(context.Background(), req, true)
	if err == nil {
		c.mu.Lock()
		commit()
		c.mu.Unlock()
	}
	return err
}

// Ping reports the server's role, drain state, and session gauges.
func (c *Client) Ping(ctx context.Context) (*ServerStatus, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpPing}, true)
	if err != nil {
		return nil, err
	}
	if resp.Server == nil {
		return nil, &ServerError{Kind: wire.KindProtocol, Message: "ping response without server info"}
	}
	return &ServerStatus{
		Role:       resp.Server.Role,
		Draining:   resp.Server.Draining,
		Sessions:   resp.Server.Sessions,
		Conns:      resp.Server.Conns,
		AppliedLSN: resp.Server.AppliedLSN,
		Staleness:  time.Duration(resp.Server.StalenessMS) * time.Millisecond,
	}, nil
}

// Close releases the connection. Further calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// resultFrom decodes a query response. A malformed row frame is a
// transport failure, like a malformed line: the bytes that arrived are
// not what the server meant to send.
func resultFrom(resp *wire.Response) (*Result, error) {
	rows, err := wire.DecodeRows(resp.Rows)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed response: %w", ErrConnection, err)
	}
	res := &Result{Columns: resp.Columns, Rows: rows}
	if resp.Stats != nil {
		res.Elapsed = time.Duration(resp.Stats.ElapsedUS) * time.Microsecond
		res.Stats = exec.Stats{
			Comparisons:   resp.Stats.Comparisons,
			TuplesOut:     resp.Stats.TuplesOut,
			SubqueryEvals: resp.Stats.SubqueryEvals,
			Elapsed:       time.Duration(resp.Stats.ElapsedUS) * time.Microsecond,
		}
	}
	return res, nil
}

// do sends one request and awaits its response, retrying transport
// failures (with redial and session replay) when retry is set.
func (c *Client) do(ctx context.Context, req *wire.Request, retry bool) (*wire.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if retry {
		p := c.opts.retry
		p.RetryIf = func(err error) bool { return errors.Is(err, ErrConnection) }
		return Retry(ctx, p, func() (*wire.Response, error) { return c.roundTrip(ctx, req) })
	}
	return c.roundTrip(ctx, req)
}

// roundTrip performs one request/response exchange under c.mu.
func (c *Client) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.conn == nil {
		if err := c.connectLocked(ctx); err != nil {
			return nil, err
		}
	}
	c.nextID++
	req.ID = c.nextID
	if req.Op != wire.OpSet && req.TimeoutMS == 0 {
		if dl, ok := ctx.Deadline(); ok {
			req.TimeoutMS = max(time.Until(dl).Milliseconds(), 1)
		} else if c.opts.requestTimeout > 0 {
			req.TimeoutMS = c.opts.requestTimeout.Milliseconds()
		}
	}
	resp, err := c.exchangeLocked(ctx, req)
	if err != nil {
		// Any transport failure poisons the connection: the stream may
		// hold a half-written request or an unread response.
		c.dropLocked()
		return nil, err
	}
	if resp.Error != nil {
		return nil, &ServerError{
			Kind:     resp.Error.Kind,
			Message:  resp.Error.Message,
			Node:     resp.Error.Node,
			Op:       resp.Error.Op,
			Strategy: resp.Error.Strategy,
		}
	}
	return resp, nil
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// connectLocked dials and replays session state (defaults, prepared
// statements) so a reconnected session behaves like the one that died.
func (c *Client) connectLocked(ctx context.Context) error {
	d := net.Dialer{Timeout: c.opts.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return fmt.Errorf("%w: dial %s: %w", ErrConnection, c.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 64<<10)
	replay := &wire.Request{Op: wire.OpSet, Strategy: c.strategy, Nulls: c.nulls, TimeoutMS: c.timeoutMS}
	if c.strategy != "" || c.nulls != "" || c.timeoutMS > 0 {
		if _, err := c.exchangeLocked(ctx, replay); err != nil {
			c.dropLocked()
			return err
		}
	}
	for name, sql := range c.prepared {
		if _, err := c.exchangeLocked(ctx, &wire.Request{Op: wire.OpPrepare, Name: name, SQL: sql}); err != nil {
			c.dropLocked()
			return err
		}
	}
	return nil
}

// exchangeLocked writes req and reads frames until req's response
// arrives. An unsolicited frame (ID 0) is the server ending the
// session — idle reap or drain — and maps to ErrConnection so the
// retry layer reconnects.
func (c *Client) exchangeLocked(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if req.ID == 0 {
		c.nextID++
		req.ID = c.nextID
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	// A context cancellation mid-exchange closes the socket: the failed
	// read surfaces immediately here, and the server's watching reader
	// cancels the in-flight query within one morsel.
	stop := context.AfterFunc(ctx, func() { c.conn.Close() })
	defer stop()
	if dl, ok := ctx.Deadline(); ok {
		// Client-side wait slack over the server-side timeout, so the
		// server's typed timeout error usually wins the race.
		c.conn.SetDeadline(dl.Add(2 * time.Second))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	if _, err := c.conn.Write(append(data, '\n')); err != nil {
		return nil, c.transportErr("write", err, ctx)
	}
	for {
		line, err := readLine(c.br, maxResponseFrame)
		if err != nil {
			return nil, c.transportErr("read", err, ctx)
		}
		var resp wire.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			return nil, fmt.Errorf("%w: malformed response: %w", ErrConnection, err)
		}
		if resp.ID == req.ID {
			return &resp, nil
		}
		if resp.ID == 0 && resp.Error != nil {
			// Session-terminal notice (idle reap, drain). Reconnectable.
			return nil, fmt.Errorf("%w: session ended by server [%s]: %s",
				ErrConnection, resp.Error.Kind, resp.Error.Message)
		}
		// A stale response from an abandoned request: skip it.
	}
}

func (c *Client) transportErr(op string, err error, ctx context.Context) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return fmt.Errorf("%w: %s: %w", ErrConnection, op, err)
}

// readLine reads one newline-terminated frame, allowing frames larger
// than the bufio buffer, capped at max bytes. A frame that fits in the
// buffer is returned in place, valid only until the next read: the
// caller's json.Unmarshal does not retain its input, and what it keeps
// (the base64-decoded row frame, the strings) it copies out.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	chunk, err := br.ReadSlice('\n')
	var line []byte
	for err == bufio.ErrBufferFull {
		line = append(line, chunk...)
		if len(line) > max {
			return nil, fmt.Errorf("response frame exceeds %d bytes", max)
		}
		chunk, err = br.ReadSlice('\n')
	}
	if err != nil {
		return nil, err
	}
	if line == nil {
		return chunk[:len(chunk)-1], nil
	}
	line = append(line, chunk...)
	return line[:len(line)-1], nil
}
