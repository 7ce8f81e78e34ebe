package disqo

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"disqo/internal/catalog"
	"disqo/internal/faultinject"
	"disqo/internal/types"
	"disqo/internal/wal"
)

// This file is the durability layer's DB-side half (DESIGN.md §13): it
// wires internal/wal into the write path, runs crash recovery at Open,
// and owns the open/close drain lifecycle. The write protocol itself is
// commit in write.go: log-after-commit under writeMu. A failed append or
// sync seals the log — the statement reports the error and every later
// write is rejected with ErrWALSealed — so the on-disk log is always a
// strict prefix of the in-memory history, which is exactly the
// invariant crash recovery (and the chaos suite's prefix-legality
// check) relies on.

// ErrClosed is returned by every DB entry point after Close has begun:
// queries, DML/DDL, loaders, and checkpoints are all rejected while
// in-flight work drains.
var ErrClosed = errors.New("disqo: database is closed")

// ErrDrainTimeout is returned by Close when in-flight queries did not
// finish within the WithDrainTimeout budget. The DB still shuts down;
// the laggards keep running against their pinned snapshots and their
// results are simply discarded by their callers.
var ErrDrainTimeout = errors.New("disqo: close drain timed out with queries in flight")

// ErrWALSealed is returned by write statements after a WAL append or
// fsync failed: the log fails closed (the damaged tail must not be
// buried under later records) and the process must restart to recover.
var ErrWALSealed = wal.ErrSealed

// RecoveryError is the typed error Open returns for on-disk damage
// recovery cannot repair: corruption before the log's final record, a
// broken sequence, or a snapshot/log gap. A torn final record is NOT
// a RecoveryError — it is silently truncated. Match with errors.As.
type RecoveryError = wal.RecoveryError

// WALStats is the write-ahead log's counter snapshot; see
// DB.WALStats and WorkloadStats.WAL.
type WALStats = wal.Stats

// WithDataDir makes the database durable: every committed DML/DDL
// statement is written to a write-ahead log in dir before the call
// returns, checkpoints serialize the catalog into snapshot files, and
// a later Open with the same dir recovers the committed state (see
// DESIGN.md §13 for the record format and torn-write rule). Without
// this option the engine is fully in-memory and Open never reads disk.
func WithDataDir(dir string) OpenOption {
	return func(o *OpenOptions) { o.DataDir = dir }
}

// WithSyncEvery sets the WAL group-commit batch: the log fsyncs after
// every nth appended record (default 1 — every statement is durable
// when its call returns). n > 1 trades the tail of the log on a crash
// for an n-fold reduction in fsyncs; pair it with WithSyncInterval to
// bound the data-loss window in wall-clock time too.
func WithSyncEvery(n int) OpenOption {
	return func(o *OpenOptions) { o.SyncEvery = n }
}

// WithSyncInterval runs a background fsync every d, bounding how long
// a group-commit batch (WithSyncEvery > 1) can sit unsynced during a
// write lull. 0 (the default) disables the ticker.
func WithSyncInterval(d time.Duration) OpenOption {
	return func(o *OpenOptions) { o.SyncInterval = d }
}

// WithCheckpointEvery checkpoints automatically after every n logged
// records: the catalog's immutable table versions are serialized to a
// snapshot file and the log is truncated, bounding both recovery
// replay time and log growth. 0 (the default) checkpoints only on
// explicit DB.Checkpoint calls.
func WithCheckpointEvery(n int) OpenOption {
	return func(o *OpenOptions) { o.CheckpointEvery = n }
}

// WithDrainTimeout bounds how long Close waits for in-flight queries
// and statements to finish before tearing down; on expiry Close
// returns ErrDrainTimeout (new work is rejected with ErrClosed either
// way). 0 (the default) waits indefinitely.
func WithDrainTimeout(d time.Duration) OpenOption {
	return func(o *OpenOptions) { o.DrainTimeout = d }
}

// withWALFaultInjector wires a deterministic fault injector into the
// durability layer's disk sites (SiteWALAppend, SiteWALSync,
// SiteSnapshot). Unexported on purpose: it is the crash-chaos hook.
func withWALFaultInjector(in *faultinject.Injector) OpenOption {
	return func(o *OpenOptions) { o.walFault = in }
}

// ---------------------------------------------------------------------
// Lifecycle: admission begin/end and the Close drain.

// begin registers one unit of in-flight work; it fails with ErrClosed
// once Close has begun. Two mutex operations, no allocation — the warm
// query path's allocation golden is unaffected.
func (db *DB) begin() error {
	db.lifeMu.Lock()
	if db.closed {
		db.lifeMu.Unlock()
		return ErrClosed
	}
	db.inflight++
	db.lifeMu.Unlock()
	return nil
}

// end retires one unit of in-flight work, waking a draining Close when
// the last one finishes.
func (db *DB) end() {
	db.lifeMu.Lock()
	db.inflight--
	if db.closed && db.inflight == 0 && db.idle != nil {
		close(db.idle)
		db.idle = nil
	}
	db.lifeMu.Unlock()
}

// Close shuts the database down: new queries and statements are
// rejected with ErrClosed immediately, in-flight work is drained
// (bounded by WithDrainTimeout; the default waits indefinitely), the
// WAL is synced and closed, and the debug listener stops. Close is
// idempotent; later calls return the first call's error.
func (db *DB) Close() error {
	db.lifeMu.Lock()
	if db.closed {
		err := db.closeErr
		db.lifeMu.Unlock()
		return err
	}
	db.closed = true
	var idle chan struct{}
	if db.inflight > 0 {
		idle = make(chan struct{})
		db.idle = idle
	}
	db.lifeMu.Unlock()

	var errs []error
	if idle != nil {
		if db.drainTimeout > 0 {
			t := time.NewTimer(db.drainTimeout)
			select {
			case <-idle:
				t.Stop()
			case <-t.C:
				errs = append(errs, ErrDrainTimeout)
			}
		} else {
			<-idle
		}
	}
	if db.wal != nil {
		// Final sync: anything a group-commit batch still holds becomes
		// durable before the file closes.
		if err := db.wal.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if db.debug != nil {
		if err := db.debug.shutdown(); err != nil {
			errs = append(errs, err)
		}
	}
	err := errors.Join(errs...)
	db.lifeMu.Lock()
	db.closeErr = err
	db.lifeMu.Unlock()
	return err
}

// ---------------------------------------------------------------------
// Logging hooks, each called from commit only.

// logging reports whether the current mutation must append a WAL
// record: a durable DB outside of recovery replay (replaying a record
// must not re-log it).
func (db *DB) logging() bool {
	return db.wal != nil && !db.recovering
}

// writeGuard rejects a write statement up front (before it commits in
// memory) when the WAL has sealed: once a record failed to reach disk,
// admitting further in-memory commits would let visible state drift
// arbitrarily far from the durable prefix. Called under writeMu.
func (db *DB) writeGuard() error {
	if db.logging() {
		if cause := db.wal.Sealed(); cause != nil {
			return fmt.Errorf("%w (cause: %w)", ErrWALSealed, cause)
		}
	}
	return nil
}

// logLocked appends one record describing a mutation that has already
// committed in memory. The caller holds writeMu; preVersion is the
// catalog commit counter before the mutation, the pre-image guard
// replay verifies. A failed append seals the log and surfaces here —
// the in-memory commit stands until restart, but the caller learns its
// statement did not reach the disk.
func (db *DB) logLocked(kind wal.Kind, preVersion uint64, body []byte) error {
	if _, err := db.wal.Append(kind, preVersion, body); err != nil {
		return fmt.Errorf("disqo: statement applied in memory but not logged: %w", err)
	}
	db.sinceCheckpoint++
	if db.checkpointEvery > 0 && db.sinceCheckpoint >= db.checkpointEvery {
		// Auto-checkpoint failure must not fail the statement — its
		// record is already durable. The error is kept for WALStats.
		if err := db.checkpointLocked(); err != nil {
			db.lastCkptErr = err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Checkpointing.

// Checkpoint serializes the catalog's current immutable table versions
// (plus view definitions) to a snapshot file and truncates the WAL —
// see the protocol in internal/wal. It requires WithDataDir.
func (db *DB) Checkpoint() error {
	if err := db.begin(); err != nil {
		return err
	}
	defer db.end()
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.wal == nil {
		return errors.New("disqo: Checkpoint requires a durable database (WithDataDir)")
	}
	return db.checkpointLocked()
}

// checkpointLocked runs the checkpoint under writeMu, so the serialized
// state is exactly one commit boundary.
func (db *DB) checkpointLocked() error {
	snap := db.cat.Snapshot()
	st := wal.CheckpointState{Tables: snap.Tables(), CatalogVersion: snap.Version()}
	for _, v := range snap.Views() {
		st.Views = append(st.Views, wal.View{Name: v.Name, SQL: v.SQL})
	}
	if err := db.wal.Checkpoint(db.dataDir, st); err != nil {
		return err
	}
	db.sinceCheckpoint = 0
	db.lastCkptErr = nil
	return nil
}

// WALStats returns the write-ahead log's counters. ok is false for a
// volatile DB (WithDataDir unset).
func (db *DB) WALStats() (WALStats, bool) {
	if db.wal == nil {
		return WALStats{}, false
	}
	return db.wal.Stats(), true
}

// ---------------------------------------------------------------------
// Recovery.

// openDurable attaches the durability layer during Open: recover the
// committed state from dir, replay the log tail through the normal
// serialized write path, and open the log for appending.
func (db *DB) openDurable(o OpenOptions) error {
	rs, err := wal.Recover(o.DataDir)
	if err != nil {
		return err
	}
	db.dataDir = o.DataDir
	db.checkpointEvery = o.CheckpointEvery
	if err := db.install(rs.CheckpointState); err != nil {
		return &RecoveryError{Reason: err.Error(), Cause: errors.Unwrap(err)}
	}
	db.recovering = true
	for _, rec := range rs.Records {
		if err := db.applyRecord(rec); err != nil {
			db.recovering = false
			return err
		}
		db.replayed.Add(1)
	}
	db.recovering = false
	l, err := wal.Open(o.DataDir, rs.LastLSN, wal.Options{
		SyncEvery:    o.SyncEvery,
		SyncInterval: o.SyncInterval,
		Injector:     o.walFault,
	})
	if err != nil {
		return err
	}
	db.wal = l
	return nil
}

// install makes a decoded checkpoint the whole committed state, in one
// catalog commit. Views are rebuilt from their CREATE VIEW text without
// validating the bodies: a view may legally outlive tables it
// references (the engine checks at definition and query time, not at
// drop time), so validating here could reject a state that was
// perfectly reachable live. A definition that does not parse rejects
// the whole checkpoint; nothing is installed.
func (db *DB) install(st wal.CheckpointState) error {
	views := make([]*catalog.View, len(st.Views))
	for i, d := range st.Views {
		v, err := catalog.NewView(d.SQL)
		if err != nil {
			return fmt.Errorf("disqo: snapshot view %q does not parse: %w", d.Name, err)
		}
		views[i] = v
	}
	db.cat.Restore(st.Tables, views, st.CatalogVersion)
	return nil
}

// applyRecord replays one log record: check the catalog pre-image
// version — if replay has diverged from what the log says it applied
// against, recovery fails closed rather than building a different
// database — decode the record to a write, commit it (logging is
// suppressed while recovering, and a replica has no log). The caller is
// already admitted — recovery runs inside Open, ReplicaApplyRecord
// holds a begin — so ErrClosed can never be reported as log damage.
func (db *DB) applyRecord(rec wal.Record) error {
	if v := db.cat.Version(); v != rec.AppliedVersion {
		return &RecoveryError{
			LSN:    rec.LSN,
			Reason: fmt.Sprintf("replay diverged: catalog at version %d, record expects pre-image %d", v, rec.AppliedVersion),
		}
	}
	w, err := decodeWrite(rec)
	if err == nil {
		_, err = db.commit(w)
	}
	if err != nil {
		return &RecoveryError{
			LSN:    rec.LSN,
			Reason: fmt.Sprintf("replaying %s record: %v", rec.Kind, err),
			Cause:  err,
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// State fingerprint.

// StateFingerprint hashes the database's logical state — every table's
// name, columns, and ordered rows, plus every view definition — into
// one 64-bit value. Two databases that executed the same statement
// sequence have equal fingerprints; the crash-chaos suite uses this to
// assert a recovered state is a sequentially-legal prefix of its churn
// script. Table version counters are deliberately excluded (a recovered
// catalog resumes at the same commit counter, but replay-internal
// version numbering is an implementation detail, not logical state).
func (db *DB) StateFingerprint() uint64 {
	h := fnv.New64a()
	snap := db.cat.Snapshot()
	for _, t := range snap.Tables() {
		fmt.Fprintf(h, "table %s (", t.Name)
		for _, c := range t.Columns {
			fmt.Fprintf(h, "%s %s,", strings.ToLower(c.Name), c.Type)
		}
		fmt.Fprintf(h, ") rows %d\n", len(t.Rel.Tuples))
		for _, row := range t.Rel.Tuples {
			h.Write([]byte(types.FormatTuple(row)))
			h.Write([]byte{'\n'})
		}
	}
	for _, v := range snap.Views() {
		fmt.Fprintf(h, "view %s := %s\n", v.Name, v.SQL)
	}
	return h.Sum64()
}
