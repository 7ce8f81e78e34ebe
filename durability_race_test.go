// Races the durability layer was built to survive: checkpoints cutting
// the log while DML commits, and Close immediately after a recovery
// replay. All leak-checked; tier-1 runs this file under -race, which is
// where the lock-ordering guarantee (checkpoint under writeMu) actually
// gets exercised.
package disqo_test

import (
	"fmt"
	"sync"
	"testing"

	"disqo"
	"disqo/internal/testutil"
)

// TestCheckpointRacesDML hammers Checkpoint from one goroutine while
// four writers commit DML: every statement must land exactly once in
// the recovered image regardless of which side of a log truncation it
// fell on.
func TestCheckpointRacesDML(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	db, err := disqo.Open(disqo.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE race (w INTEGER, i INTEGER)"); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 50
	var writerWG, ckptWG sync.WaitGroup
	stopCkpt := make(chan struct{})
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint under DML: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO race VALUES (%d, %d)", w, i)); err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stopCkpt)
	ckptWG.Wait()

	want := db.StateFingerprint()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := disqo.Open(disqo.WithDataDir(dir))
	if err != nil {
		t.Fatalf("recovery after checkpoint/DML race: %v", err)
	}
	defer db2.Close()
	if got := db2.StateFingerprint(); got != want {
		t.Fatalf("recovered fingerprint %016x != live %016x", got, want)
	}
	res, err := db2.Query("SELECT COUNT(*) FROM race")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].IntOk(); n != writers*perWriter {
		t.Fatalf("recovered %d rows, want %d", n, writers*perWriter)
	}
}

// TestCloseImmediatelyAfterRecovery closes the instant Open returns
// from a replay-heavy directory. Close cannot arrive *during* recovery
// — replay runs inside Open, before any handle exists to close — so
// the adversarial window is the first instant afterwards: the WAL is
// live, the group-commit ticker may be armed, and nothing has ever
// been queried.
func TestCloseImmediatelyAfterRecovery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	db, err := disqo.Open(disqo.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := db.StateFingerprint()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		db, err := disqo.Open(disqo.WithDataDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		if ws := db.WorkloadStats(); ws.RecoveryReplayedRecords == 0 {
			t.Fatal("directory opened without replaying anything; the test lost its teeth")
		}
		if got := db.StateFingerprint(); got != want {
			t.Fatalf("open %d: fingerprint %016x != %016x", i, got, want)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("immediate close %d: %v", i, err)
		}
	}
}
