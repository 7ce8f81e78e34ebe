package disqo

import (
	"errors"
	"fmt"

	"disqo/internal/wal"
)

// This file is the engine half of read replication (DESIGN.md §14). A
// replica is an ordinary *volatile* DB — WithDataDir unset, so nothing
// it applies is re-logged — that a transport feeds with the writer's
// checkpoint snapshots and WAL records, in LSN order. The engine does
// not own the transport (internal/server does); it owns the two
// invariants that make replica state trustworthy:
//
//   - Snapshot installs are atomic: one catalog commit swaps in every
//     table and view, so a concurrent read pins either the old state or
//     the new, never a mix.
//   - Record application is gap-free: records replay through the same
//     applyRecord path crash recovery uses (pre-image version guard
//     included), and an LSN that is neither a duplicate nor exactly
//     next fails with ErrReplicaGap so the transport re-syncs from a
//     snapshot instead of silently diverging.

// ErrReplicaGap is returned by ReplicaApplyRecord when a record's LSN
// is not contiguous with the replica's applied position — records were
// lost in transit, or the writer truncated its log past us. The replica
// must re-sync from a snapshot; applying anything after a gap would
// build a state no sequential execution ever produced.
var ErrReplicaGap = errors.New("disqo: replication gap")

// ReplicaState reports a replica's apply position; see DB.ReplicaState.
type ReplicaState struct {
	// AppliedLSN is the last WAL record applied (0 before any record; a
	// snapshot install moves it to the snapshot's covered LSN).
	AppliedLSN uint64
	// Snapshots and Records count successful applies since Open.
	Snapshots uint64
	Records   uint64
}

// replicaGuard rejects replica applies on a durable DB: a DB that logs
// its own writes cannot also mirror someone else's log — the two
// histories would interleave in the WAL and recovery would replay a
// sequence no one executed.
func (db *DB) replicaGuard() error {
	if db.wal != nil {
		return errors.New("disqo: replica apply requires a volatile database (WithDataDir unset)")
	}
	return nil
}

// ReplicaApplySnapshot installs a writer checkpoint snapshot (the raw
// bytes of a snapshot file, as produced by Checkpoint and shipped by
// the replication stream) as this database's entire state, replacing
// every table and view. It returns the LSN the snapshot covers; later
// ReplicaApplyRecord calls must continue from exactly that position.
// Concurrent queries are safe: each pins either the pre- or
// post-snapshot catalog.
func (db *DB) ReplicaApplySnapshot(data []byte) (uint64, error) {
	if err := db.replicaGuard(); err != nil {
		return 0, err
	}
	if err := db.begin(); err != nil {
		return 0, err
	}
	defer db.end()
	st, lsn, err := wal.DecodeSnapshot(data)
	if err != nil {
		return 0, fmt.Errorf("disqo: replica snapshot: %w", err)
	}
	db.replicaMu.Lock()
	defer db.replicaMu.Unlock()
	db.writeMu.Lock()
	err = db.install(st)
	db.writeMu.Unlock()
	if err != nil {
		return 0, err
	}
	db.replicaLSN = lsn
	db.replicaSnaps++
	return lsn, nil
}

// ReplicaApplyRecord applies one WAL record shipped from the writer.
// Records must arrive in LSN order: a duplicate (LSN at or below the
// applied position — retransmits after a reconnect) is skipped without
// error, the next LSN is applied through the same replay path crash
// recovery uses, and anything else fails with ErrReplicaGap. On a gap
// the replica's state is untouched; the transport should re-sync from
// a snapshot.
func (db *DB) ReplicaApplyRecord(rec wal.Record) error {
	if err := db.replicaGuard(); err != nil {
		return err
	}
	if err := db.begin(); err != nil {
		return err
	}
	defer db.end()
	db.replicaMu.Lock()
	defer db.replicaMu.Unlock()
	switch {
	case rec.LSN <= db.replicaLSN:
		return nil
	case rec.LSN != db.replicaLSN+1:
		return fmt.Errorf("%w: applied through LSN %d, record is %d", ErrReplicaGap, db.replicaLSN, rec.LSN)
	}
	// applyRecord commits through the ordinary write path, which takes
	// writeMu itself; replicaMu alone serializes appliers.
	if err := db.applyRecord(rec); err != nil {
		return err
	}
	db.replicaLSN = rec.LSN
	db.replicaRecs++
	return nil
}

// ReplicaState returns the replica's apply position. On a DB that has
// never applied replication frames it is all zeros.
func (db *DB) ReplicaState() ReplicaState {
	db.replicaMu.Lock()
	defer db.replicaMu.Unlock()
	return ReplicaState{AppliedLSN: db.replicaLSN, Snapshots: db.replicaSnaps, Records: db.replicaRecs}
}
