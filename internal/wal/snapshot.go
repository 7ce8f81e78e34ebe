package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"disqo/internal/catalog"
	"disqo/internal/faultinject"
)

// Snapshot file layout:
//
//	[8]  magic "DISQOCKP"
//	[u32] format version (1)
//	[u32] body length
//	[...] body
//	[u32] CRC32C(body)
//
// body:
//
//	[uvarint lastLSN]
//	[uvarint #views] ([string name][string sql])*
//	[catalog state]   (catalog.AppendState: commit counter + tables)
//
// The checkpoint protocol writes the file under a .tmp name, fsyncs,
// atomically renames it into place, fsyncs the directory, and only
// then truncates the log — so at every instant the directory holds at
// least one complete (snapshot, log-suffix) pair that reconstructs the
// committed state. Older snapshots are deleted last, best-effort.

const (
	snapMagic   = "DISQOCKP"
	snapVersion = 1
	snapPrefix  = "snapshot-"
	snapSuffix  = ".ckpt"
)

// View is a view definition as a snapshot carries it: the view's name
// and its CREATE VIEW statement as written (the catalog rebuilds the
// view from the text, catalog.NewView).
type View struct {
	Name string
	SQL  string
}

// CheckpointState is everything a checkpoint serializes — one catalog
// commit: its immutable table versions, its view definitions and its
// commit counter.
type CheckpointState struct {
	Tables         []*catalog.Table
	CatalogVersion uint64
	Views          []View
}

func snapName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	var lsn uint64
	hex := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if _, err := fmt.Sscanf(hex, "%016x", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// encodeSnapshot builds the complete snapshot file contents.
func encodeSnapshot(st CheckpointState, lastLSN uint64) []byte {
	var body []byte
	body = binary.AppendUvarint(body, lastLSN)
	body = binary.AppendUvarint(body, uint64(len(st.Views)))
	views := make([]View, len(st.Views))
	copy(views, st.Views)
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	for _, v := range views {
		body = binary.AppendUvarint(body, uint64(len(v.Name)))
		body = append(body, v.Name...)
		body = binary.AppendUvarint(body, uint64(len(v.SQL)))
		body = append(body, v.SQL...)
	}
	body = catalog.AppendState(body, st.Tables, st.CatalogVersion)

	out := make([]byte, 0, len(snapMagic)+8+len(body)+4)
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, checksum(body))
	return out
}

// decodeSnapshot parses and verifies a complete snapshot file image,
// returning the checkpointed state and the last LSN the snapshot
// covers.
func decodeSnapshot(data []byte) (CheckpointState, uint64, error) {
	var st CheckpointState
	hdr := len(snapMagic) + 8
	if len(data) < hdr+4 {
		return st, 0, fmt.Errorf("snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return st, 0, errors.New("bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint32(data[len(snapMagic):]); v != snapVersion {
		return st, 0, fmt.Errorf("unsupported snapshot format version %d", v)
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[len(snapMagic)+4:]))
	if len(data) != hdr+bodyLen+4 {
		return st, 0, fmt.Errorf("snapshot length %d does not match declared body %d", len(data), bodyLen)
	}
	body := data[hdr : hdr+bodyLen]
	if checksum(body) != binary.LittleEndian.Uint32(data[hdr+bodyLen:]) {
		return st, 0, errors.New("snapshot checksum mismatch")
	}
	lastLSN, n := binary.Uvarint(body)
	if n <= 0 {
		return st, 0, errors.New("bad snapshot LSN")
	}
	body = body[n:]
	nviews, n := binary.Uvarint(body)
	if n <= 0 || nviews > uint64(len(body)) {
		return st, 0, errors.New("bad snapshot view count")
	}
	body = body[n:]
	readStr := func(what string) (string, error) {
		u, n := binary.Uvarint(body)
		if n <= 0 || u > uint64(len(body)-n) {
			return "", fmt.Errorf("bad snapshot %s", what)
		}
		s := string(body[n : n+int(u)])
		body = body[n+int(u):]
		return s, nil
	}
	for i := uint64(0); i < nviews; i++ {
		name, err := readStr("view name")
		if err != nil {
			return st, 0, err
		}
		sql, err := readStr("view sql")
		if err != nil {
			return st, 0, err
		}
		st.Views = append(st.Views, View{Name: name, SQL: sql})
	}
	tables, version, err := catalog.DecodeState(body)
	if err != nil {
		return st, 0, err
	}
	st.Tables = tables
	st.CatalogVersion = version
	return st, lastLSN, nil
}

// Checkpoint serializes st to a new snapshot file covering every
// record logged so far, then truncates the log. On any failure before
// the rename the previous snapshot and full log remain authoritative;
// after the rename the new snapshot is authoritative and a leftover
// un-truncated log suffix is filtered by LSN during recovery.
func (l *Log) Checkpoint(dir string, st CheckpointState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed != nil {
		return fmt.Errorf("%w (cause: %w)", ErrSealed, l.sealed)
	}
	if l.pending > 0 {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	lsn := l.lsn
	visit := func() error {
		if l.opts.Injector == nil {
			return nil
		}
		return l.opts.Injector.Visit(faultinject.SiteSnapshot, -1)
	}
	if err := visit(); err != nil { // visit 1: before the tmp write
		return err
	}
	data := encodeSnapshot(st, lsn)
	final := filepath.Join(dir, snapName(lsn))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint publish: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("wal: checkpoint dir sync: %w", err)
	}
	if err := visit(); err != nil { // visit 2: published, log not yet truncated
		return err
	}
	if err := l.truncateLocked(); err != nil {
		return err
	}
	if err := visit(); err != nil { // visit 3: after truncation
		return err
	}
	// The new snapshot supersedes all older ones; removal is best-effort
	// (a leftover older snapshot is skipped by recovery's newest-first
	// scan, never misread).
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if n, ok := parseSnapName(e.Name()); ok && n < lsn {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// RecoveredState is what Recover reconstructs from a data directory:
// the newest valid snapshot's contents plus the log records that must
// replay on top of it.
type RecoveredState struct {
	// CheckpointState restores the catalog to the snapshot's commit
	// boundary (zero-valued when no snapshot exists).
	CheckpointState
	// SnapshotLSN is the last record the snapshot covers (0: none).
	SnapshotLSN uint64
	// Records is the log tail to replay, strictly after SnapshotLSN.
	Records []Record
	// TruncatedTail reports that a torn final record was dropped and
	// the log file physically truncated at the last valid boundary.
	TruncatedTail bool
	// LastLSN seeds the reopened log's sequence counter.
	LastLSN uint64
}

// Recover reads dir and reconstructs the committed state: it removes
// leftover temp files, loads the newest valid snapshot (falling back
// past unreadable ones), scans the log, truncates a torn tail in
// place, and verifies the surviving records form the contiguous
// sequence immediately following the snapshot. Any other damage
// returns a *RecoveryError.
func Recover(dir string) (*RecoveredState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: data dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: data dir: %w", err)
	}
	var snaps []uint64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			// A checkpoint died before publishing; its temp file is garbage.
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if lsn, ok := parseSnapName(e.Name()); ok {
			snaps = append(snaps, lsn)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })

	rs := &RecoveredState{}
	for _, lsn := range snaps {
		path := filepath.Join(dir, snapName(lsn))
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		st, lastLSN, err := decodeSnapshot(data)
		if err != nil {
			// An unreadable newer snapshot falls back to an older one; if
			// the log was already truncated past the older snapshot the
			// sequence check below turns that into a hard error rather
			// than silently losing the gap.
			continue
		}
		rs.CheckpointState = st
		rs.SnapshotLSN = lastLSN
		break
	}

	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: read log: %w", err)
	}
	recs, valid, torn, scanErr := Scan(data)
	if scanErr != nil {
		var re *RecoveryError
		if errors.As(scanErr, &re) {
			re.Path = logPath
		}
		return nil, scanErr
	}
	if torn {
		if err := os.Truncate(logPath, valid); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		rs.TruncatedTail = true
	}

	rs.LastLSN = rs.SnapshotLSN
	next := rs.SnapshotLSN + 1
	for _, rec := range recs {
		if rec.LSN <= rs.SnapshotLSN {
			// Covered by the snapshot (checkpoint died between rename and
			// truncate); already applied.
			continue
		}
		if rec.LSN != next {
			return nil, &RecoveryError{
				Path: logPath, LSN: rec.LSN,
				Reason: fmt.Sprintf("log does not continue snapshot: want LSN %d, found %d", next, rec.LSN),
			}
		}
		rs.Records = append(rs.Records, rec)
		rs.LastLSN = rec.LSN
		next++
	}
	return rs, nil
}
