package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"disqo"
	"disqo/internal/faultinject"
	"disqo/internal/sqlparser"
	"disqo/internal/wire"
)

// Session teardown causes. The worker maps the cause the reader (or
// Shutdown) recorded to the terminal frame the client gets — or to no
// frame at all when the socket itself is gone.
var (
	errConnLost       = errors.New("connection lost")
	errIdle           = errors.New("session idle timeout")
	errSlowFrame      = errors.New("request frame timed out mid-read")
	errFrameTooLarge  = errors.New("request frame exceeds size limit")
	errWriteFailed    = errors.New("response write failed")
	errShutdownForced = errors.New("server shutdown cancelled the session")
)

// readerTick is how often the reader's blocking Read wakes to check
// idle expiry, slow frames, and session cancellation. It also bounds
// how late a connection loss can be noticed while a query runs: the
// kernel fails the read immediately on RST, and on a silent peer the
// next tick's read surfaces it.
const readerTick = time.Second

// session is one client connection: a reader goroutine that owns every
// socket read (so the socket is watched even while a query runs — a
// client disconnect cancels the in-flight query within one morsel) and
// a worker goroutine that executes requests and owns every write.
type session struct {
	srv  *Server
	conn net.Conn

	ctx    context.Context
	cause  context.CancelCauseFunc
	frames chan []byte

	readerDone chan struct{}

	// busy is set while the worker executes a request or streams
	// replication; the reader never idle-reaps a busy session.
	busy atomic.Bool
	// lastActive is the unix-nano time of the last byte received or
	// request completed; the idle reaper measures from here.
	lastActive atomic.Int64

	// out holds the response being written, newline included; enc
	// marshals into it. Both are the worker's, reused response after
	// response.
	out bytes.Buffer
	enc *json.Encoder

	// Session state, owned by the worker goroutine.
	prepared map[string]string
	strategy string
	nulls    string
	timeout  time.Duration
}

func newSession(s *Server, conn net.Conn) *session {
	ctx, cause := context.WithCancelCause(context.Background())
	sess := &session{
		srv:        s,
		conn:       conn,
		ctx:        ctx,
		cause:      cause,
		frames:     make(chan []byte, 16),
		readerDone: make(chan struct{}),
		prepared:   make(map[string]string),
	}
	sess.enc = json.NewEncoder(&sess.out)
	sess.lastActive.Store(time.Now().UnixNano())
	return sess
}

func (s *session) cancel(cause error) { s.cause(cause) }

// reader owns conn reads. It assembles newline-delimited frames from a
// private buffer (a deadline can fire mid-frame; consumed bytes must
// survive the retry), enforces the frame size cap and the slowloris
// budget, reaps idle sessions, and converts any hard read error into a
// session cancellation — which is what aborts an in-flight query when
// the client vanishes.
func (s *session) reader() {
	defer close(s.readerDone)
	var pending []byte
	var frameStart time.Time
	buf := make([]byte, 16<<10)
	for {
		// Drain complete frames out of the buffer first.
		for {
			i := bytes.IndexByte(pending, '\n')
			if i < 0 {
				break
			}
			line := bytes.TrimSuffix(pending[:i], []byte{'\r'})
			frame := make([]byte, len(line))
			copy(frame, line)
			pending = pending[i+1:]
			frameStart = time.Time{}
			if f := s.srv.cfg.Fault; f != nil {
				if err := f.Visit(faultinject.SiteConnRead, -1); err != nil {
					// Injected read fault: the frame never "arrived" —
					// indistinguishable from the peer dying mid-send.
					s.cancel(errConnLost)
					return
				}
			}
			select {
			case s.frames <- frame:
			case <-s.ctx.Done():
				return
			}
		}
		if len(pending) > s.srv.cfg.MaxFrame {
			s.cancel(errFrameTooLarge)
			return
		}
		if len(pending) > 0 && frameStart.IsZero() {
			frameStart = time.Now()
		}
		s.conn.SetReadDeadline(time.Now().Add(readerTick))
		n, err := s.conn.Read(buf)
		if n > 0 {
			pending = append(pending, buf[:n]...)
			s.lastActive.Store(time.Now().UnixNano())
		}
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if s.ctx.Err() != nil {
				return
			}
			if len(pending) > 0 && time.Since(frameStart) > s.srv.cfg.FrameTimeout {
				s.cancel(errSlowFrame)
				return
			}
			idle := s.srv.cfg.IdleTimeout
			if idle > 0 && !s.busy.Load() &&
				time.Since(time.Unix(0, s.lastActive.Load())) > idle {
				s.cancel(errIdle)
				return
			}
			continue
		}
		// EOF, reset, or a closed socket: the peer is gone (or teardown
		// already began). Either way the session ends and any running
		// query's context is cancelled.
		s.cancel(errConnLost)
		return
	}
}

// run is the worker: it executes requests one at a time in arrival
// order and owns every write to the connection.
func (s *session) run() {
	defer s.srv.wg.Done()
	defer s.teardown()
	go s.reader()
	for {
		select {
		case <-s.ctx.Done():
			s.writeTerminal()
			return
		case <-s.srv.drainCh:
			s.writeError(0, wire.KindClosed, "server draining")
			return
		case frame := <-s.frames:
			if !s.handle(frame) {
				return
			}
			if s.srv.isDraining() {
				s.writeError(0, wire.KindClosed, "server draining")
				return
			}
		}
	}
}

func (s *session) teardown() {
	s.cancel(errConnLost)
	s.conn.Close()
	<-s.readerDone
	s.srv.remove(s)
}

// writeTerminal maps the cancellation cause to a final typed error
// frame. A lost connection or failed write gets nothing — there is no
// one left to read it.
func (s *session) writeTerminal() {
	switch cause := context.Cause(s.ctx); {
	case errors.Is(cause, errConnLost), errors.Is(cause, errWriteFailed):
	case errors.Is(cause, errIdle):
		s.writeError(0, wire.KindClosed, "session closed: idle timeout")
	case errors.Is(cause, errSlowFrame):
		s.writeError(0, wire.KindProtocol, "request frame timed out mid-read")
	case errors.Is(cause, errFrameTooLarge):
		s.writeError(0, wire.KindProtocol, "request frame exceeds size limit")
	default:
		s.writeError(0, wire.KindClosed, "session closed: "+cause.Error())
	}
}

// maxKeptOut is the largest response buffer a session keeps between
// responses, so one large result does not pin its size for the
// session's life.
const maxKeptOut = 1 << 20

// writeResponse marshals resp into the session's reused buffer, which
// the encoder ends with the newline, and writes that line.
func (s *session) writeResponse(resp *wire.Response) bool {
	s.out.Reset()
	if err := s.enc.Encode(resp); err != nil {
		s.out.Reset()
		s.enc.Encode(&wire.Response{ID: resp.ID, Error: &wire.Error{
			Kind: wire.KindProtocol, Message: "response marshal failed: " + err.Error()}})
	}
	ok := s.writeFrame(s.out.Bytes())
	if s.out.Cap() > maxKeptOut {
		s.out = bytes.Buffer{}
	}
	return ok
}

// writeFrame writes one newline-terminated response line under the
// write deadline. A failure (injected or real) cancels the session.
func (s *session) writeFrame(line []byte) bool {
	if f := s.srv.cfg.Fault; f != nil {
		if err := f.Visit(faultinject.SiteConnWrite, -1); err != nil {
			s.cancel(errWriteFailed)
			return false
		}
	}
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
	if _, err := s.conn.Write(line); err != nil {
		s.cancel(errWriteFailed)
		return false
	}
	return true
}

func (s *session) writeError(id uint64, kind, msg string) bool {
	return s.writeResponse(&wire.Response{ID: id, Error: &wire.Error{Kind: kind, Message: msg}})
}

// handle executes one request frame. It returns false when the session
// must end (replication took the connection over, or a write failed).
func (s *session) handle(frame []byte) bool {
	var req wire.Request
	if err := json.Unmarshal(frame, &req); err != nil {
		// The frame boundary itself is intact (we split on newline), so
		// the session can survive one malformed line.
		return s.writeError(0, wire.KindProtocol, "bad request frame: "+err.Error())
	}
	if req.Op == wire.OpReplicate {
		return s.replicate(req)
	}
	s.busy.Store(true)
	resp := s.dispatch(&req)
	s.busy.Store(false)
	s.lastActive.Store(time.Now().UnixNano())
	s.srv.mu.Lock()
	s.srv.requests++
	s.srv.mu.Unlock()
	return s.writeResponse(resp)
}

func (s *session) dispatch(req *wire.Request) *wire.Response {
	s.srv.mu.Lock()
	s.srv.inflight++
	s.srv.mu.Unlock()
	defer func() {
		s.srv.mu.Lock()
		s.srv.inflight--
		s.srv.mu.Unlock()
	}()
	switch req.Op {
	case wire.OpQuery:
		return s.doQuery(req)
	case wire.OpExec:
		return s.doExec(req)
	case wire.OpPrepare:
		return s.doPrepare(req)
	case wire.OpClose:
		if req.Name == "" {
			return errResp(req.ID, wire.KindProtocol, "close requires name")
		}
		delete(s.prepared, req.Name)
		return &wire.Response{ID: req.ID, OK: true}
	case wire.OpSet:
		return s.doSet(req)
	case wire.OpPing:
		return s.doPing(req)
	default:
		return errResp(req.ID, wire.KindProtocol, "unknown op "+req.Op)
	}
}

func errResp(id uint64, kind, msg string) *wire.Response {
	return &wire.Response{ID: id, Error: &wire.Error{Kind: kind, Message: msg}}
}

// requestCtx derives the execution context: the session context (so a
// client disconnect aborts the query) bounded by the request or
// session timeout.
func (s *session) requestCtx(req *wire.Request) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(s.ctx, timeout)
	}
	return s.ctx, func() {}
}

func (s *session) queryOptions(req *wire.Request) ([]disqo.Option, *wire.Error) {
	var opts []disqo.Option
	strategy := req.Strategy
	if strategy == "" {
		strategy = s.strategy
	}
	if strategy != "" {
		st, ok := disqo.ParseStrategy(strategy)
		if !ok {
			return nil, &wire.Error{Kind: wire.KindInvalid, Message: "unknown strategy " + strategy}
		}
		opts = append(opts, disqo.WithStrategy(st))
	}
	nulls := req.Nulls
	if nulls == "" {
		nulls = s.nulls
	}
	if nulls != "" {
		m, ok := disqo.ParseNullMode(nulls)
		if !ok {
			return nil, &wire.Error{Kind: wire.KindInvalid, Message: "unknown null mode " + nulls}
		}
		opts = append(opts, disqo.WithNullMode(m))
	}
	return opts, nil
}

func (s *session) doQuery(req *wire.Request) *wire.Response {
	sql := req.SQL
	if sql == "" {
		if req.Name == "" {
			return errResp(req.ID, wire.KindProtocol, "query requires sql or name")
		}
		stored, ok := s.prepared[req.Name]
		if !ok {
			return errResp(req.ID, wire.KindInvalid, "no prepared statement "+req.Name)
		}
		sql = stored
	}
	opts, werr := s.queryOptions(req)
	if werr != nil {
		return &wire.Response{ID: req.ID, Error: werr}
	}
	ctx, done := s.requestCtx(req)
	defer done()
	res, err := s.srv.cfg.DB.QueryContext(ctx, sql, opts...)
	if err != nil {
		return &wire.Response{ID: req.ID, Error: errorFrom(err)}
	}
	return &wire.Response{
		ID:      req.ID,
		OK:      true,
		Columns: res.Columns,
		Rows:    wire.EncodeRows(res.Rows),
		Stats: &wire.Stats{
			ElapsedUS:     res.Elapsed.Microseconds(),
			Comparisons:   res.Stats.Comparisons,
			TuplesOut:     res.Stats.TuplesOut,
			SubqueryEvals: res.Stats.SubqueryEvals,
			Rows:          len(res.Rows),
		},
	}
}

func (s *session) doExec(req *wire.Request) *wire.Response {
	if s.srv.cfg.Role == RoleReplica {
		return errResp(req.ID, wire.KindReadOnly, "replica is read-only; send writes to the writer")
	}
	if req.SQL == "" {
		return errResp(req.ID, wire.KindProtocol, "exec requires sql")
	}
	n, err := s.srv.cfg.DB.Exec(req.SQL)
	if err != nil {
		return &wire.Response{ID: req.ID, Error: errorFrom(err)}
	}
	return &wire.Response{ID: req.ID, OK: true, Affected: n}
}

func (s *session) doPrepare(req *wire.Request) *wire.Response {
	if req.Name == "" || req.SQL == "" {
		return errResp(req.ID, wire.KindProtocol, "prepare requires name and sql")
	}
	// Validate now so the client learns about a broken statement at
	// prepare time; the plan cache makes repeated execution cheap (the
	// statement is planned once per catalog version), so storing the
	// text is the honest representation of a prepared statement here.
	if _, err := sqlparser.ParseStatement(req.SQL); err != nil {
		return errResp(req.ID, wire.KindInvalid, err.Error())
	}
	s.prepared[req.Name] = req.SQL
	return &wire.Response{ID: req.ID, OK: true}
}

func (s *session) doSet(req *wire.Request) *wire.Response {
	if req.Strategy != "" {
		if _, ok := disqo.ParseStrategy(req.Strategy); !ok {
			return errResp(req.ID, wire.KindInvalid, "unknown strategy "+req.Strategy)
		}
		s.strategy = req.Strategy
	}
	if req.Nulls != "" {
		if _, ok := disqo.ParseNullMode(req.Nulls); !ok {
			return errResp(req.ID, wire.KindInvalid, "unknown null mode "+req.Nulls)
		}
		s.nulls = req.Nulls
	}
	if req.TimeoutMS > 0 {
		s.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	} else if req.TimeoutMS < 0 {
		s.timeout = 0
	}
	return &wire.Response{ID: req.ID, OK: true}
}

func (s *session) doPing(req *wire.Request) *wire.Response {
	st := s.srv.Stats()
	info := &wire.ServerInfo{
		Role:     s.srv.cfg.Role,
		Draining: st.Draining,
		Sessions: st.Sessions,
		Conns:    st.Conns,
	}
	if s.srv.cfg.Role == RoleReplica {
		info.AppliedLSN = s.srv.cfg.DB.ReplicaState().AppliedLSN
		if s.srv.cfg.Staleness != nil {
			info.StalenessMS = s.srv.cfg.Staleness().Milliseconds()
		}
	}
	return &wire.Response{ID: req.ID, OK: true, Server: info}
}

// errorFrom maps an engine error to its wire kind. Execution failures
// arrive wrapped in *disqo.QueryError with the sentinel cause
// underneath; parse and plan failures arrive unwrapped and map to
// "invalid" (the statement is wrong — retrying cannot help).
func errorFrom(err error) *wire.Error {
	we := &wire.Error{Kind: wire.KindQuery, Message: err.Error()}
	var qe *disqo.QueryError
	isQueryError := errors.As(err, &qe)
	if isQueryError {
		if qe.NodeID >= 0 {
			we.Node, we.Op = qe.NodeID, qe.Op
		}
		we.Strategy = string(qe.Strategy)
	}
	switch {
	case errors.Is(err, disqo.ErrOverloaded):
		we.Kind = wire.KindOverloaded
	case errors.Is(err, disqo.ErrClosed):
		we.Kind = wire.KindClosed
	case errors.Is(err, disqo.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		we.Kind = wire.KindTimeout
	case errors.Is(err, disqo.ErrMemoryLimit):
		we.Kind = wire.KindMemory
	case errors.Is(err, context.Canceled):
		we.Kind = wire.KindCanceled
	case errors.Is(err, disqo.ErrWALSealed):
		we.Kind = wire.KindSealed
	case errors.Is(err, disqo.ErrReplicaGap):
		we.Kind = wire.KindProtocol
	case !isQueryError:
		we.Kind = wire.KindInvalid
	}
	return we
}
