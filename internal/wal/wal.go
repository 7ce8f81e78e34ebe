package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"disqo/internal/faultinject"
	"disqo/internal/telemetry"
)

// logName is the single active log file inside a data directory.
const logName = "wal.log"

// ErrSealed reports a WAL that refused a write because an earlier
// append or sync failed. Once a frame may have reached the disk
// incompletely, further appends could bury the damage mid-log — which
// recovery treats as unrecoverable corruption — so the log fails all
// subsequent writes until the process restarts and recovery truncates
// the torn tail. (The same fail-closed rule PostgreSQL adopted after
// fsyncgate: never retry past a failed fsync.)
var ErrSealed = errors.New("wal: log sealed after a failed append or sync")

// Options configures a Log.
type Options struct {
	// SyncEvery fsyncs after every Nth appended record (group commit).
	// 0 or 1 syncs every append — full durability, one fsync per write.
	SyncEvery int
	// SyncInterval, when positive, runs a background ticker that syncs
	// any pending appends, bounding the data-loss window of SyncEvery>1.
	SyncInterval time.Duration
	// Injector, when non-nil, receives SiteWALAppend/SiteWALSync visits
	// (node -1) before the corresponding disk operation.
	Injector *faultinject.Injector
}

// Stats is a point-in-time copy of the log's counters.
type Stats struct {
	// Appends counts records accepted into the log.
	Appends uint64 `json:"appends"`
	// AppendedBytes counts frame bytes written (headers included).
	AppendedBytes uint64 `json:"appended_bytes"`
	// Syncs counts fsync calls issued.
	Syncs uint64 `json:"syncs"`
	// SyncedBytes counts appended bytes that an fsync has made durable.
	SyncedBytes uint64 `json:"synced_bytes"`
	// Truncations counts checkpoint log resets.
	Truncations uint64 `json:"truncations"`
	// LastLSN is the highest sequence number assigned.
	LastLSN uint64 `json:"last_lsn"`
	// PendingRecords is the number of appended-but-unsynced records.
	PendingRecords int `json:"pending_records"`
	// Sealed reports whether the log has failed closed.
	Sealed bool `json:"sealed"`
	// Fsync is the fsync latency distribution.
	Fsync telemetry.LatencySnapshot `json:"fsync"`
}

// Log is an append-only write-ahead log over one file. All methods are
// safe for concurrent use; in disqo appends additionally serialize
// under the database write lock, so record order matches commit order.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	lsn     uint64 // last assigned LSN; survives truncation
	pending int    // records appended since the last completed sync
	sealed  error  // sticky first failure; non-nil rejects writes
	buf     []byte // frame scratch, reused across appends
	opts    Options

	appends       atomic.Uint64
	appendedBytes atomic.Uint64
	syncs         atomic.Uint64
	syncedBytes   atomic.Uint64
	truncations   atomic.Uint64
	unsynced      uint64 // bytes appended since last sync (under mu)
	fsync         telemetry.Histogram

	stopTick chan struct{}
	tickDone chan struct{}
}

// Open opens (creating if absent) the log file in dir for appending.
// lastLSN seeds the sequence counter — recovery passes the highest LSN
// it observed across snapshot and log so new records continue the
// sequence without gaps.
func Open(dir string, lastLSN uint64, opts Options) (*Log, error) {
	if opts.SyncEvery < 1 {
		opts.SyncEvery = 1
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	l := &Log{f: f, lsn: lastLSN, opts: opts}
	if opts.SyncInterval > 0 {
		l.stopTick = make(chan struct{})
		l.tickDone = make(chan struct{})
		go l.tick()
	}
	return l, nil
}

// tick is the group-commit safety net: with SyncEvery > 1, a lull in
// writes would otherwise leave the last few records unsynced forever.
func (l *Log) tick() {
	defer close(l.tickDone)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopTick:
			return
		case <-t.C:
			l.mu.Lock()
			if l.pending > 0 && l.sealed == nil {
				l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Append assigns the next LSN, frames the record, writes it, and — per
// the group-commit policy — fsyncs. On return without error the record
// is in the log (durably, unless SyncEvery batching deferred the sync).
// Any write or sync failure seals the log.
func (l *Log) Append(kind Kind, appliedVersion uint64, body []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed != nil {
		return 0, fmt.Errorf("%w (cause: %w)", ErrSealed, l.sealed)
	}
	rec := Record{LSN: l.lsn + 1, AppliedVersion: appliedVersion, Kind: kind, Body: body}
	l.buf = appendFrame(l.buf[:0], rec)
	if l.opts.Injector != nil {
		if err := l.opts.Injector.Visit(faultinject.SiteWALAppend, -1); err != nil {
			if errors.Is(err, faultinject.ErrShortWrite) && len(l.buf) > 1 {
				// Emulate a torn write faithfully: a strict prefix of the
				// frame reaches the file before the failure surfaces.
				l.f.Write(l.buf[:len(l.buf)/2])
				l.f.Sync()
			}
			l.sealed = err
			return 0, err
		}
	}
	n, err := l.f.Write(l.buf)
	if err != nil {
		l.sealed = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.lsn = rec.LSN
	l.pending++
	l.unsynced += uint64(n)
	l.appends.Add(1)
	l.appendedBytes.Add(uint64(n))
	if l.pending >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return rec.LSN, nil
}

// forceSync fsyncs every appended record now, whatever the group-commit
// policy; the tests use it to observe a sync on demand.
func (l *Log) forceSync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed != nil {
		return fmt.Errorf("%w (cause: %w)", ErrSealed, l.sealed)
	}
	if l.pending == 0 {
		return nil
	}
	return l.syncLocked()
}

// syncLocked fsyncs under l.mu, recording latency and sealing on error.
func (l *Log) syncLocked() error {
	if l.opts.Injector != nil {
		if err := l.opts.Injector.Visit(faultinject.SiteWALSync, -1); err != nil {
			l.sealed = err
			return err
		}
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.sealed = err
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.fsync.Record(time.Since(start))
	l.syncs.Add(1)
	l.syncedBytes.Add(l.unsynced)
	l.unsynced = 0
	l.pending = 0
	return nil
}

// truncateLocked resets the log file to empty after a checkpoint made
// its contents redundant. The LSN counter is untouched: sequence
// numbers never restart.
func (l *Log) truncateLocked() error {
	if err := l.f.Truncate(0); err != nil {
		l.sealed = err
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		l.sealed = err
		return fmt.Errorf("wal: truncate seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.sealed = err
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	l.pending = 0
	l.unsynced = 0
	l.truncations.Add(1)
	return nil
}

// Sealed returns the sticky failure that sealed the log, or nil.
func (l *Log) Sealed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	lsn, pending, sealed := l.lsn, l.pending, l.sealed != nil
	l.mu.Unlock()
	return Stats{
		Appends:        l.appends.Load(),
		AppendedBytes:  l.appendedBytes.Load(),
		Syncs:          l.syncs.Load(),
		SyncedBytes:    l.syncedBytes.Load(),
		Truncations:    l.truncations.Load(),
		LastLSN:        lsn,
		PendingRecords: pending,
		Sealed:         sealed,
		Fsync:          l.fsync.Snapshot(),
	}
}

// Close syncs any pending records and closes the file. A sealed log
// skips the final sync (it would be rejected anyway) but still closes.
func (l *Log) Close() error {
	if l.stopTick != nil {
		close(l.stopTick)
		<-l.tickDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var errs []error
	if l.sealed == nil && l.pending > 0 {
		if err := l.syncLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := l.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("wal: close: %w", err))
	}
	return errors.Join(errs...)
}
