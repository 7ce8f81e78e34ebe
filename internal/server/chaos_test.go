// Wire-level chaos suite. Three layers of violence, in order of blast
// radius: seeded connection faults (reads and writes failing at random
// while clients keep querying), a SIGKILLed server process under
// closed-loop load (the restarted server must recover a sequentially
// legal prefix of the acknowledged statements), and replica failover
// (a replica must keep serving stale-bounded reads across its writer's
// death and catch up when the writer returns). Every test leak-checks
// goroutines and, where sockets churn, file descriptors.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"disqo"
	"disqo/internal/faultinject"
	"disqo/internal/server"
	"disqo/internal/testutil"
)

// freeAddr reserves a loopback port by binding and releasing it. The
// tiny race with another process is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestChaosConnFaults runs queries through a server whose read and
// write paths fail on a seeded pseudo-random subset of visits. Every
// query must either succeed or fail with a typed error the client can
// classify; afterwards the server must be back to zero sessions with
// no goroutine or fd leaks — injected socket failures may cost
// requests, never sessions-in-limbo.
func TestChaosConnFaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	testutil.VerifyNoFDLeaks(t)
	in := faultinject.NewSeeded(0xd15c0d, 5) // every ~5th conn visit fails
	srv, db, addr := startServer(t, server.Config{Fault: in})
	seedTable(t, db)

	const queries = 120
	succeeded, failed := 0, 0
	for i := 0; i < queries; i++ {
		// A fresh client every few queries keeps dial/accept under fault
		// pressure too; reuse in between exercises reconnect.
		c, err := disqo.Dial(addr)
		if err != nil {
			failed++
			continue
		}
		for j := 0; j < 3; j++ {
			res, err := c.Query("SELECT k, v FROM kv WHERE k = 1 OR v = 'two'")
			switch {
			case err == nil:
				if len(res.Rows) != 2 {
					t.Fatalf("degraded result under faults: %d rows, want 2", len(res.Rows))
				}
				succeeded++
			case errors.Is(err, disqo.ErrConnection) || errors.Is(err, disqo.ErrClosed):
				failed++
			default:
				var se *disqo.ServerError
				if !errors.As(err, &se) {
					t.Fatalf("unclassifiable error under faults: %v", err)
				}
				failed++
			}
		}
		c.Close()
	}
	if succeeded == 0 {
		t.Fatal("no query ever succeeded under seeded faults")
	}
	if in.Fired() == 0 {
		t.Fatal("no fault ever fired; the chaos hook is disconnected")
	}
	t.Logf("seeded conn faults: %d ok, %d failed, %d faults fired", succeeded, failed, in.Fired())

	// All torn sessions must be fully reaped.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions stuck after chaos: %+v", srv.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serveChurnScript is the kill test's deterministic write workload:
// state after statement i is a function of i alone, so the set of
// legal post-crash states is exactly the set of prefix fingerprints.
func serveChurnScript() []string {
	script := []string{
		"CREATE TABLE load (a INTEGER, b VARCHAR)",
	}
	for i := 0; i < 30; i++ {
		script = append(script, fmt.Sprintf("INSERT INTO load VALUES (%d, 'row%d')", i, i%7))
	}
	script = append(script,
		"UPDATE load SET b = 'x' WHERE a > 20",
		"DELETE FROM load WHERE a = 3",
		"CREATE TABLE second (k INTEGER)",
		"INSERT INTO second VALUES (1), (2), (3)",
	)
	return script
}

// TestServerChaosChild is the victim process: it serves a durable DB at
// the address the parent chose until the parent SIGKILLs it.
func TestServerChaosChild(t *testing.T) {
	dir := os.Getenv("DISQO_SERVE_DIR")
	if dir == "" {
		t.Skip("server-chaos child; driven by TestChaosServerKillUnderLoad")
	}
	db, err := disqo.Open(disqo.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenAndServe(os.Getenv("DISQO_SERVE_ADDR")); err != nil {
		t.Fatal(err)
	}
}

// spawnServerChild starts the victim and waits until it answers a ping.
func spawnServerChild(t *testing.T, dir, addr string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestServerChaosChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), "DISQO_SERVE_DIR="+dir, "DISQO_SERVE_ADDR="+addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := disqo.Dial(addr)
		if err == nil {
			if _, err := c.Ping(nil); err == nil {
				c.Close()
				return cmd
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child server never became ready: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestChaosServerKillUnderLoad SIGKILLs a server process at several
// points of a closed-loop write workload and asserts, after each kill,
// that reopening the data directory recovers a sequentially legal
// state: every acknowledged statement is durable (the WAL fsyncs before
// the response), at most the one unacknowledged in-flight statement may
// additionally have applied, and nothing is ever torn or reordered.
func TestChaosServerKillUnderLoad(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	testutil.VerifyNoFDLeaks(t)
	script := serveChurnScript()

	// Legal states: the fingerprint after every prefix of the script.
	legal := make(map[uint64]int)
	vdb, err := disqo.Open()
	if err != nil {
		t.Fatal(err)
	}
	legal[vdb.StateFingerprint()] = 0
	for i, sql := range script {
		if _, err := vdb.Exec(sql); err != nil {
			t.Fatalf("script statement %d: %v", i, err)
		}
		legal[vdb.StateFingerprint()] = i + 1
	}
	vdb.Close()

	for _, killAt := range []int{2, 11, 27} {
		t.Run(fmt.Sprintf("killAfter%d", killAt), func(t *testing.T) {
			dir := t.TempDir()
			addr := freeAddr(t)
			cmd := spawnServerChild(t, dir, addr)
			defer func() {
				cmd.Process.Kill()
				cmd.Wait()
			}()

			c, err := disqo.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			acked := 0
			for _, sql := range script {
				if acked == killAt {
					// SIGKILL between request cycles: the next Exec runs
					// against a dying or dead server.
					cmd.Process.Kill()
				}
				if _, err := c.Exec(sql); err != nil {
					break
				}
				acked++
			}
			cmd.Wait()
			if acked >= len(script) {
				t.Fatal("child survived the kill and finished the script")
			}

			db, err := disqo.Open(disqo.WithDataDir(dir))
			if err != nil {
				t.Fatalf("recovery after kill@%d failed: %v", killAt, err)
			}
			defer db.Close()
			n, ok := legal[db.StateFingerprint()]
			if !ok {
				t.Fatalf("kill@%d: recovered state matches no script prefix", killAt)
			}
			// Acked statements must be durable; the single in-flight
			// statement whose response was lost may or may not be.
			if n < acked || n > acked+1 {
				t.Fatalf("kill@%d: recovered prefix %d, acked %d — lost or phantom writes", killAt, n, acked)
			}
			t.Logf("kill@%d: %d acked, recovered prefix %d", killAt, acked, n)
		})
	}
}

// startWriter opens a durable DB over dir and serves it on addr,
// returning a stop function that tears the server down abruptly (no
// graceful drain — this is the failover test's murder weapon).
func startWriter(t *testing.T, dir, addr string) (*disqo.DB, func()) {
	t.Helper()
	db, err := disqo.Open(disqo.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once bool
	stop := func() {
		if once {
			return
		}
		once = true
		ctx, cancel := context.WithDeadline(context.Background(), time.Now())
		defer cancel()
		srv.Shutdown(ctx)
		<-done
		if err := db.Close(); err != nil {
			t.Errorf("writer close: %v", err)
		}
	}
	t.Cleanup(stop)
	return db, stop
}

func replicaCount(rdb *disqo.DB, table string) (int, error) {
	res, err := rdb.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return -1, err
	}
	n, _ := res.Rows[0][0].IntOk()
	return int(n), nil
}

func waitReplicaCount(t *testing.T, rdb *disqo.DB, table string, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		n, err := replicaCount(rdb, table)
		if err == nil && n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached %d rows in %s (last: %d, %v)", want, table, n, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosReplicaFailover walks the full failover arc: a replica
// bootstraps through a checkpoint snapshot (the writer's log was
// truncated before it ever connected), tails live writes, keeps serving
// reads — with growing, observable staleness — while the writer is
// dead, and converges again when a new writer process recovers the
// directory and takes the old address.
func TestChaosReplicaFailover(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	testutil.VerifyNoFDLeaks(t)
	dir := t.TempDir()
	addr := freeAddr(t)
	db1, stopWriter := startWriter(t, dir, addr)

	if _, err := db1.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db1.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Truncate the log: a replica starting from LSN 0 can now only be
	// bootstrapped by shipping the checkpoint snapshot.
	if err := db1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		if _, err := db1.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}

	rdb, err := disqo.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep, err := server.NewReplica(server.ReplicaConfig{
		DB: rdb, Writer: addr, ReconnectDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	repCtx, repCancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		rep.Run(repCtx)
	}()
	defer func() {
		repCancel()
		<-repDone
	}()

	waitReplicaCount(t, rdb, "t", 10)
	if rs := rdb.ReplicaState(); rs.Snapshots == 0 {
		t.Fatalf("replica bootstrapped without the snapshot bridge: %+v", rs)
	}

	// The writer dies. The replica keeps answering — staleness grows
	// without bound, but reads never fail.
	stopWriter()
	preDeath := rep.Staleness()
	time.Sleep(300 * time.Millisecond)
	if n, err := replicaCount(rdb, "t"); err != nil || n != 10 {
		t.Fatalf("replica read during writer death: %d rows, %v", n, err)
	}
	if rep.Staleness() <= preDeath {
		t.Fatal("staleness did not grow while the writer was dead")
	}

	// A new writer process recovers the directory and takes the address;
	// the replica reconnects and catches up.
	db2, _ := startWriter(t, dir, addr)
	if _, err := db2.Exec("INSERT INTO t VALUES (100)"); err != nil {
		t.Fatal(err)
	}
	waitReplicaCount(t, rdb, "t", 11)
}

// TestChaosReplicaApplyFault injects a failure into the replica's apply
// loop mid-stream: the stream drops, the replica reconnects and
// re-handshakes from its applied LSN, and convergence is unharmed —
// records already applied are skipped as duplicates, never re-applied.
func TestChaosReplicaApplyFault(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	addr := freeAddr(t)
	db1, _ := startWriter(t, dir, addr)
	if _, err := db1.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db1.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}

	in := faultinject.New()
	in.Arm(faultinject.SiteReplicaApply, -1, 4, false) // die on the 4th frame
	rdb, err := disqo.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep, err := server.NewReplica(server.ReplicaConfig{
		DB: rdb, Writer: addr, ReconnectDelay: 50 * time.Millisecond, Fault: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	repCtx, repCancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		rep.Run(repCtx)
	}()
	defer func() {
		repCancel()
		<-repDone
	}()

	waitReplicaCount(t, rdb, "t", 8)
	if in.Fired() == 0 {
		t.Fatal("the apply fault never fired")
	}
	// Convergence must be exact despite the mid-stream retry.
	if rs := rdb.ReplicaState(); rs.AppliedLSN == 0 {
		t.Fatalf("replica state empty after convergence: %+v", rs)
	}
}
