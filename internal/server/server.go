// Package server is disqod's network front-end: a TCP server speaking
// the newline-delimited JSON protocol in internal/wire, hardened the
// way DESIGN.md §14 describes. Each connection gets a session owning
// its prepared statements and defaults; a reader goroutine keeps
// watching the socket while queries run so a client disconnect cancels
// its in-flight query within one morsel; read deadlines plus a frame
// size cap bound what a slow or hostile peer can pin; a connection
// limit in front of the engine's FIFO admission gate sheds with a
// typed overloaded error instead of queueing unboundedly; and Shutdown
// drains gracefully — stop accepting, finish in-flight requests,
// then hand the engine back to the caller for Close.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"

	"disqo"
	"disqo/internal/faultinject"
	"disqo/internal/telemetry"
	"disqo/internal/wire"
)

// Config configures a Server. DB is required; everything else has a
// serviceable default.
type Config struct {
	DB *disqo.DB
	// MaxConns bounds concurrently-open client connections; beyond it
	// new connections get one overloaded error and are closed. This
	// sits in front of the engine's admission gate: the gate bounds
	// executing queries, MaxConns bounds sockets and sessions.
	// Default 256; negative disables the limit.
	MaxConns int
	// IdleTimeout reaps sessions with no traffic and no running request.
	// Default 5m; negative disables reaping.
	IdleTimeout time.Duration
	// FrameTimeout bounds how long a request frame may dribble in after
	// its first byte — the slowloris guard. Default 10s.
	FrameTimeout time.Duration
	// WriteTimeout bounds each response write. Default 10s.
	WriteTimeout time.Duration
	// MaxFrame bounds one request line in bytes. Default
	// wire.DefaultMaxFrame.
	MaxFrame int
	// Fault is the chaos hook: SiteAccept per accepted connection,
	// SiteConnRead per completed request frame, SiteConnWrite per
	// response write. Nil costs one branch per visit.
	Fault *faultinject.Injector
	// Logf logs server lifecycle events; nil discards.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() error {
	if c.DB == nil {
		return errors.New("server: Config.DB is required")
	}
	if c.MaxConns == 0 {
		c.MaxConns = 256
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Stats is a point-in-time snapshot of the server's gauges and
// counters; see Server.Stats.
type Stats struct {
	// Sessions is live established sessions; Conns additionally counts
	// sockets being refused/torn down.
	Sessions int
	Conns    int
	// Inflight is requests currently executing against the engine.
	Inflight int
	// Accepted and Shed count connections since start; Requests counts
	// completed requests.
	Accepted uint64
	Shed     uint64
	Requests uint64
	Draining bool
}

// Server accepts connections and runs sessions. Construct with New,
// start with Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	conns    int
	inflight int
	accepted uint64
	shed     uint64
	requests uint64
	draining bool

	drainCh chan struct{}
	wg      sync.WaitGroup
}

// New validates cfg and returns an idle server.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		sessions: make(map[*session]struct{}),
		drainCh:  make(chan struct{}),
	}
	return s, nil
}

// ListenAndServe binds addr and serves until Shutdown or a fatal
// accept error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve runs the accept loop on ln until Shutdown closes it. The
// listener is owned by the server from here on.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.cfg.Logf("disqod: serving on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return err
		}
		s.accept(conn)
	}
}

// Addr returns the bound listener address (for tests binding ":0"), or
// nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// accept admits or refuses one fresh connection.
func (s *Server) accept(conn net.Conn) {
	s.mu.Lock()
	s.accepted++
	if s.cfg.Fault != nil {
		if err := s.cfg.Fault.Visit(faultinject.SiteAccept, -1); err != nil {
			// Injected accept fault: the connection dies before any
			// session state exists — exactly a peer that vanished
			// between connect and first byte.
			s.mu.Unlock()
			conn.Close()
			return
		}
	}
	if s.draining {
		s.mu.Unlock()
		s.refuse(conn, wire.KindClosed, "server draining")
		return
	}
	if s.cfg.MaxConns > 0 && s.conns >= s.cfg.MaxConns {
		s.shed++
		s.mu.Unlock()
		s.refuse(conn, wire.KindOverloaded, "connection limit reached, retry with backoff")
		return
	}
	s.conns++
	sess := newSession(s, conn)
	s.sessions[sess] = struct{}{}
	// Add under the lock that saw draining false: Shutdown sets it
	// under the same lock before it waits, so no Add races its Wait.
	s.wg.Add(1)
	s.mu.Unlock()
	go sess.run()
}

// refuse writes one typed error frame and closes; used for connections
// that never become sessions. Runs in its own goroutine so a peer that
// won't read can't stall the accept loop.
func (s *Server) refuse(conn net.Conn, kind, msg string) {
	go func() {
		defer conn.Close()
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		data, err := json.Marshal(wire.Response{Error: &wire.Error{Kind: kind, Message: msg}})
		if err != nil {
			return
		}
		conn.Write(append(data, '\n'))
	}()
}

func (s *Server) remove(sess *session) {
	s.mu.Lock()
	if _, ok := s.sessions[sess]; ok {
		delete(s.sessions, sess)
		s.conns--
	}
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Shutdown drains the server: the listener closes (no new
// connections), idle sessions get a typed closed error, busy sessions
// finish their in-flight request. When ctx expires first, remaining
// sessions are cancelled — their queries abort within one morsel and
// the client sees a canceled error if the write still lands — and
// Shutdown returns ctx.Err(). The DB is not closed; the caller owns
// that ordering (drain the network first, then db.Close).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: Shutdown called twice")
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	// Closing drainCh wakes every idle session worker (they select on
	// it); busy sessions observe the drain after their current request.
	close(s.drainCh)
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cfg.Logf("disqod: drained cleanly")
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for sess := range s.sessions {
		sess.cancel(errShutdownForced)
	}
	s.mu.Unlock()
	<-done
	s.cfg.Logf("disqod: drain timed out, in-flight work cancelled")
	return ctx.Err()
}

// Stats snapshots the server's gauges and counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Sessions: len(s.sessions),
		Conns:    s.conns,
		Inflight: s.inflight,
		Accepted: s.accepted,
		Shed:     s.shed,
		Requests: s.requests,
		Draining: s.draining,
	}
}

// MetricsText renders the server's gauges and counters in Prometheus
// text format, for appending to the engine's /metrics page via
// WithDebugMetrics.
func (s *Server) MetricsText() []byte {
	st := s.Stats()
	var e telemetry.Exposition
	add := func(name, typ, help string, v float64) {
		e.Family(name, typ, help)
		e.Value("", v)
	}
	add("disqod_sessions", "gauge", "Live client sessions.", float64(st.Sessions))
	add("disqod_conns", "gauge", "Open client connections.", float64(st.Conns))
	add("disqod_inflight_requests", "gauge", "Requests currently executing.", float64(st.Inflight))
	add("disqod_accepted_total", "counter", "Connections accepted since start.", float64(st.Accepted))
	add("disqod_shed_total", "counter", "Connections refused at the connection limit.", float64(st.Shed))
	add("disqod_requests_total", "counter", "Requests completed since start.", float64(st.Requests))
	drain := 0.0
	if st.Draining {
		drain = 1
	}
	add("disqod_draining", "gauge", "1 while the server is draining.", drain)
	return e.Bytes()
}
