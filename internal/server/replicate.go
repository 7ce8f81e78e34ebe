package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"disqo"
	"disqo/internal/faultinject"
	"disqo/internal/wal"
	"disqo/internal/wire"
)

// Replication rides the WAL's own frame format: after the JSON
// OpReplicate handshake the writer streams frames encoded with
// wal.AppendFrame. Engine record kinds (1..6) apply through
// DB.ReplicaApplyRecord; two server-layer kinds exist only on the
// wire (chosen far outside the engine range, and hand-parsed on the
// replica because wal.Scan rightly rejects kinds it cannot replay):
const (
	// repKindHeartbeat carries no body; its LSN is the writer's
	// last-shipped position. Sent every heartbeatEvery so the replica
	// can bound staleness and detect writer death.
	repKindHeartbeat wal.Kind = 200
	// repKindSnapshot's body is a raw checkpoint snapshot file; its LSN
	// is the LSN the snapshot covers. Sent when the replica's resume
	// position predates what the (truncated) log can supply.
	repKindSnapshot wal.Kind = 201
)

const (
	heartbeatEvery = 1 * time.Second
	publishPoll    = 50 * time.Millisecond
	// replicaReadTimeout is how long a replica waits for any frame
	// before declaring the writer dead and reconnecting; heartbeats
	// arrive at 1s, so 5s tolerates scheduling hiccups without masking
	// a real death for long.
	replicaReadTimeout = 5 * time.Second
)

// ---------------------------------------------------------------------
// Writer side: the publisher tails the engine's live WAL directory and
// streams records to one attached replica per call.

type publisher struct {
	dir  string
	logf func(format string, args ...any)
}

// replicate switches the session's connection into a replication
// stream. It runs on the session worker goroutine; the session reader
// keeps watching the socket, so a replica disconnect cancels s.ctx and
// ends the stream. Always returns false: the connection never goes
// back to JSON.
func (s *session) replicate(req wire.Request) bool {
	if s.srv.pub == nil {
		s.writeError(req.ID, wire.KindProtocol, "this server does not publish replication (writer with a data dir required)")
		return false
	}
	s.busy.Store(true)
	defer s.busy.Store(false)
	s.srv.mu.Lock()
	s.srv.replicas++
	s.srv.mu.Unlock()
	defer func() {
		s.srv.mu.Lock()
		s.srv.replicas--
		s.srv.mu.Unlock()
	}()
	send := func(rec wal.Record) error {
		if !s.writeRawFrame(wal.AppendFrame(nil, rec)) {
			return errWriteFailed
		}
		return nil
	}
	if err := s.srv.pub.stream(s.ctx, s.srv.drainCh, send, req.FromLSN); err != nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, errWriteFailed) {
		s.srv.cfg.Logf("disqod: replication stream ended: %v", err)
	}
	return false
}

// writeRawFrame writes pre-framed bytes (no newline) under the write
// deadline and the SiteConnWrite chaos hook.
func (s *session) writeRawFrame(data []byte) bool {
	if f := s.srv.cfg.Fault; f != nil {
		if err := f.Visit(faultinject.SiteConnWrite, -1); err != nil {
			s.cancel(errWriteFailed)
			return false
		}
	}
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
	if _, err := s.conn.Write(data); err != nil {
		s.cancel(errWriteFailed)
		return false
	}
	return true
}

// stream ships everything after LSN `from` to one replica, then keeps
// tailing the live log until ctx is done or the server drains. The log
// file is read, never recovered: wal.Recover would truncate a torn
// tail the writer is about to finish writing. Offsets only advance by
// whole valid frames (wal.Scan reports the valid byte count), so a
// torn tail is simply re-read on the next poll.
func (p *publisher) stream(ctx context.Context, drain <-chan struct{}, send func(wal.Record) error, from uint64) error {
	pos := from
	var offset int64
	lastBeat := time.Now()
	logPath := wal.LogPath(p.dir)
	for {
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-drain:
			return nil
		default:
		}
		recs, newOffset, err := p.readLog(logPath, offset)
		if err != nil {
			return err
		}
		offset = newOffset
		// Does the backlog continue from pos, or did checkpoint
		// truncation (or a fresh replica) leave a gap only a snapshot
		// can bridge?
		next := uint64(0)
		for _, rec := range recs {
			if rec.LSN > pos && (next == 0 || rec.LSN < next) {
				next = rec.LSN
			}
		}
		if next != pos+1 {
			snapPath, snapLSN, ok, err := wal.NewestSnapshot(p.dir)
			if err != nil {
				return err
			}
			if ok && snapLSN > pos {
				data, err := os.ReadFile(snapPath)
				if err != nil {
					return fmt.Errorf("server: reading snapshot for replica: %w", err)
				}
				if err := send(wal.Record{LSN: snapLSN, Kind: repKindSnapshot, Body: data}); err != nil {
					return err
				}
				pos = snapLSN
				lastBeat = time.Now()
			} else if next != 0 {
				// Records exist past pos but pos+1 is gone and no
				// snapshot bridges it — the replica asked for history
				// this writer no longer has.
				return fmt.Errorf("server: replica resume LSN %d predates available history (next record %d, no covering snapshot)", pos, next)
			}
		}
		for _, rec := range recs {
			if rec.LSN <= pos {
				continue
			}
			if err := send(rec); err != nil {
				return err
			}
			pos = rec.LSN
			lastBeat = time.Now()
		}
		if time.Since(lastBeat) >= heartbeatEvery {
			if err := send(wal.Record{LSN: pos, Kind: repKindHeartbeat}); err != nil {
				return err
			}
			lastBeat = time.Now()
		}
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-drain:
			return nil
		case <-time.After(publishPoll):
		}
	}
}

// readLog returns the complete frames past offset and the new offset.
// A file smaller than offset means a checkpoint truncated the log; the
// scan restarts from zero (the caller's LSN filter drops duplicates).
// A missing file is an empty log.
func (p *publisher) readLog(path string, offset int64) ([]wal.Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, offset, fmt.Errorf("server: opening wal for replication: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, offset, err
	}
	if fi.Size() < offset {
		offset = 0
	}
	if fi.Size() == offset {
		return nil, offset, nil
	}
	data := make([]byte, fi.Size()-offset)
	if _, err := io.ReadFull(io.NewSectionReader(f, offset, int64(len(data))), data); err != nil {
		return nil, offset, fmt.Errorf("server: reading wal for replication: %w", err)
	}
	recs, valid, _, err := wal.Scan(data)
	if err != nil {
		// Mid-log corruption: the writer's own recovery would refuse
		// this file too. Nothing sane to ship.
		return nil, offset, fmt.Errorf("server: wal unreadable for replication: %w", err)
	}
	return recs, offset + valid, nil
}

// ---------------------------------------------------------------------
// Replica side: dial the writer, hand it our applied LSN, apply what
// comes back, reconnect forever.

// ReplicaConfig configures a replication follower.
type ReplicaConfig struct {
	// DB is the volatile database replication frames apply into (the
	// same DB the replica's own Server serves reads from).
	DB *disqo.DB
	// Writer is the writer server's address.
	Writer string
	// ReconnectDelay paces redials after a connection failure.
	// Default 500ms.
	ReconnectDelay time.Duration
	// Fault is the chaos hook: SiteReplicaApply fires once per
	// replication frame; an injected fault is treated as a transport
	// error and forces a reconnect.
	Fault *faultinject.Injector
	// Logf logs connection lifecycle; nil discards.
	Logf func(format string, args ...any)
}

// Replica follows a writer. Construct with NewReplica, drive with Run;
// Staleness feeds ping responses and metrics.
type Replica struct {
	cfg ReplicaConfig
	// lastHeard is unix-nanos of the last frame from the writer.
	lastHeard atomic.Int64
}

func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: ReplicaConfig.DB is required")
	}
	if cfg.Writer == "" {
		return nil, errors.New("server: ReplicaConfig.Writer is required")
	}
	if cfg.ReconnectDelay <= 0 {
		cfg.ReconnectDelay = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Replica{cfg: cfg}
	r.lastHeard.Store(time.Now().UnixNano())
	return r, nil
}

// Staleness reports time since the writer was last heard from. It
// grows without bound while the writer is down — which is the point:
// the replica keeps serving stale-bounded reads and the bound is
// observable.
func (r *Replica) Staleness() time.Duration {
	return time.Since(time.Unix(0, r.lastHeard.Load()))
}

// Run follows the writer until ctx is done or the DB closes. Every
// other failure — writer death, network faults, replication gaps —
// logs, backs off, and reconnects: the replica's job is to outlive its
// writer.
func (r *Replica) Run(ctx context.Context) error {
	for {
		err := r.follow(ctx)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, disqo.ErrClosed):
			return err
		}
		r.cfg.Logf("disqod: replication interrupted (%v), reconnecting in %s", err, r.cfg.ReconnectDelay)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(r.cfg.ReconnectDelay):
		}
	}
}

// follow runs one connection's worth of replication.
func (r *Replica) follow(ctx context.Context) error {
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", r.cfg.Writer)
	if err != nil {
		return err
	}
	defer conn.Close()
	// A dead writer must not leave us parked in a read forever; the
	// watchdog goroutine closes the conn when ctx ends, and read
	// deadlines bound each frame wait.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchdogDone:
		}
	}()
	hs, err := json.Marshal(wire.Request{Op: wire.OpReplicate, FromLSN: r.cfg.DB.ReplicaState().AppliedLSN})
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(append(hs, '\n')); err != nil {
		return err
	}
	r.cfg.Logf("disqod: replicating from %s at LSN %d", r.cfg.Writer, r.cfg.DB.ReplicaState().AppliedLSN)
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		conn.SetReadDeadline(time.Now().Add(replicaReadTimeout))
		rec, err := readRepFrame(br)
		if err != nil {
			return err
		}
		if f := r.cfg.Fault; f != nil {
			if err := f.Visit(faultinject.SiteReplicaApply, -1); err != nil {
				return err
			}
		}
		r.lastHeard.Store(time.Now().UnixNano())
		switch rec.Kind {
		case repKindHeartbeat:
			// Position only; nothing to apply. A heartbeat ahead of our
			// applied LSN would mean lost records, but the publisher
			// only ever heartbeats its last-sent position, so the apply
			// path below has already caught any gap.
		case repKindSnapshot:
			if _, err := r.cfg.DB.ReplicaApplySnapshot(rec.Body); err != nil {
				return err
			}
		default:
			if err := r.cfg.DB.ReplicaApplyRecord(rec); err != nil {
				// ErrReplicaGap included: reconnecting re-handshakes
				// from the applied LSN and the writer bridges with a
				// snapshot.
				return err
			}
		}
	}
}

// readRepFrame reads one WAL-framed record off the stream. It parses
// the frame by hand instead of wal.Scan because the stream carries
// server-layer kinds (heartbeat, snapshot) Scan would reject as
// corruption — here an unknown kind is a protocol error, decided after
// the CRC proves the frame intact.
func readRepFrame(br *bufio.Reader) (wal.Record, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return wal.Record{}, err
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[:4]))
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if payloadLen < 17 || payloadLen > wal.MaxRecordLen {
		return wal.Record{}, fmt.Errorf("server: replication frame length %d out of range", payloadLen)
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return wal.Record{}, err
	}
	if got := wal.Checksum(payload); got != wantCRC {
		return wal.Record{}, fmt.Errorf("server: replication frame CRC mismatch (want %08x, got %08x)", wantCRC, got)
	}
	return wal.Record{
		LSN:            binary.LittleEndian.Uint64(payload[:8]),
		AppliedVersion: binary.LittleEndian.Uint64(payload[8:16]),
		Kind:           wal.Kind(payload[16]),
		Body:           payload[17:],
	}, nil
}
