package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"disqo"
	"disqo/internal/server"
	"disqo/internal/testutil"
	"disqo/internal/types"
	"disqo/internal/wire"
)

// startServer opens a DB (volatile unless cfg.DataDir is set, in which
// case the DB opens over it), starts a server on a loopback port, and
// registers cleanup that shuts both down. The returned address is ready
// to dial.
func startServer(t *testing.T, cfg server.Config, openOpts ...disqo.OpenOption) (*server.Server, *disqo.DB, string) {
	t.Helper()
	if cfg.DB == nil {
		if cfg.DataDir != "" {
			openOpts = append(openOpts, disqo.WithDataDir(cfg.DataDir))
		}
		db, err := disqo.Open(openOpts...)
		if err != nil {
			t.Fatal(err)
		}
		cfg.DB = db
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // double Shutdown from a test that drained is fine to ignore
		<-serveDone
		cfg.DB.Close()
	})
	return srv, cfg.DB, ln.Addr().String()
}

func seedTable(t *testing.T, db *disqo.DB) {
	t.Helper()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE kv (k INTEGER, v VARCHAR)")
	mustExec("INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')")
}

// rawExchange sends one raw JSON line and returns the first response
// line, for tests that need protocol-level control a Client hides.
func rawExchange(t *testing.T, conn net.Conn, req wire.Request) wire.Response {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	return readResp(t, conn)
}

func readResp(t *testing.T, conn net.Conn) wire.Response {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var resp wire.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("bad response %q: %v", line, err)
	}
	return resp
}

func TestServeQueryExecPrepare(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	testutil.VerifyNoFDLeaks(t)
	_, db, addr := startServer(t, server.Config{})
	seedTable(t, db)

	c, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Query("SELECT k, v FROM kv WHERE k = 2 OR v = 'three'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 2 {
		t.Fatalf("got %d rows / %d cols, want 2/2", len(res.Rows), len(res.Columns))
	}
	// The served rows must be identical to an embedded query's.
	local, err := db.Query("SELECT k, v FROM kv WHERE k = 2 OR v = 'three'")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(local.Rows) {
		t.Fatalf("served rows %v != local rows %v", res.Rows, local.Rows)
	}

	n, err := c.Exec("INSERT INTO kv VALUES (4, 'four')")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("affected = %d, want 1", n)
	}

	if err := c.Prepare("getall", "SELECT k FROM kv"); err != nil {
		t.Fatal(err)
	}
	res, err = c.QueryPrepared(context.Background(), "getall")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("prepared query returned %d rows, want 4", len(res.Rows))
	}
	if err := c.ClosePrepared("getall"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryPrepared(context.Background(), "getall"); err == nil {
		t.Fatal("query of a closed prepared statement succeeded")
	}

	if err := c.SetStrategy(disqo.Canonical); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT k FROM kv WHERE k = 1"); err != nil {
		t.Fatalf("query under session strategy: %v", err)
	}

	st, err := c.Ping(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != server.RoleWriter || st.Sessions != 1 {
		t.Fatalf("ping = %+v, want writer with 1 session", st)
	}
}

func TestServeTypedErrors(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, db, addr := startServer(t, server.Config{})
	seedTable(t, db)
	c, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Parse failure → invalid, and not retried into oblivion.
	_, err = c.Query("SELEC nonsense")
	var se *disqo.ServerError
	if !errors.As(err, &se) || se.Kind != wire.KindInvalid {
		t.Fatalf("parse failure err = %v, want ServerError kind invalid", err)
	}

	// Timeout → the engine's typed timeout, satisfying errors.Is across
	// the wire. The canonical strategy evaluates the subquery once per
	// outer row, far past the deadline; unnested, the query and its
	// result's trip back can both fit in it.
	if err := db.LoadRST(0.3, 0.3, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := c.SetStrategy(disqo.Canonical); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	slow := `SELECT DISTINCT * FROM r
	         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`
	_, err = c.QueryContext(ctx, slow)
	if err == nil {
		t.Fatal("slow query under 10ms deadline succeeded")
	}
	if !errors.Is(err, disqo.ErrTimeout) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout err = %v, want ErrTimeout/DeadlineExceeded across the wire", err)
	}

	// A malformed scalar subquery is rejected at plan time (the engine
	// only admits aggregate scalar subqueries, per the paper), so it
	// must arrive as invalid — the statement is wrong, retrying cannot
	// help.
	_, err = c.Query("SELECT k FROM kv WHERE k = (SELECT k FROM kv)")
	if !errors.As(err, &se) || se.Kind != wire.KindInvalid {
		t.Fatalf("bad scalar subquery err = %v, want ServerError kind invalid", err)
	}
}

func TestServeReplicaRejectsWrites(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, _, addr := startServer(t, server.Config{Role: server.RoleReplica})
	c, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("CREATE TABLE nope (a INTEGER)")
	var se *disqo.ServerError
	if !errors.As(err, &se) || se.Kind != wire.KindReadOnly {
		t.Fatalf("replica exec err = %v, want kind read_only", err)
	}
}

func TestServeMaxConnsShed(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	testutil.VerifyNoFDLeaks(t)
	_, _, addr := startServer(t, server.Config{MaxConns: 1})

	c1, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// The second connection gets one typed overloaded frame and a close.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := readResp(t, conn)
	if resp.Error == nil || resp.Error.Kind != wire.KindOverloaded {
		t.Fatalf("second conn got %+v, want overloaded error", resp)
	}

	// Dropping the first connection frees the slot (poll: teardown is
	// asynchronous).
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := disqo.Dial(addr)
		if err == nil {
			if _, err := c2.Ping(nil); err == nil {
				c2.Close()
				break
			}
			c2.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServeMaxFrameLimit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, _, addr := startServer(t, server.Config{MaxFrame: 1 << 10})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 1 MiB line against a 1 KiB limit: the server must answer with a
	// protocol error and close, never buffer it. It may hang up while the
	// line is still being written, so a reset here is not a failure; the
	// error frame it sent first is still there to read.
	conn.Write([]byte(strings.Repeat("x", 1<<20)))
	resp := readResp(t, conn)
	if resp.Error == nil || resp.Error.Kind != wire.KindProtocol {
		t.Fatalf("oversized frame got %+v, want protocol error", resp)
	}
}

func TestServeSlowlorisFrameTimeout(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, _, addr := startServer(t, server.Config{FrameTimeout: 1500 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a frame and never finish it. The reader checks the frame
	// budget on its 1s tick, so the typed error arrives within a few
	// seconds — and the connection must then close.
	if _, err := conn.Write([]byte(`{"op":"ping"`)); err != nil {
		t.Fatal(err)
	}
	resp := readResp(t, conn)
	if resp.Error == nil || resp.Error.Kind != wire.KindProtocol {
		t.Fatalf("slowloris got %+v, want protocol error", resp)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(conn).ReadByte(); err == nil {
		t.Fatal("connection still open after slowloris teardown")
	}
}

func TestServeIdleReap(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _, addr := startServer(t, server.Config{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The idle check runs on the reader's 1s tick; the session must be
	// gone within a couple of ticks, with a typed closed frame first.
	resp := readResp(t, conn)
	if resp.Error == nil || resp.Error.Kind != wire.KindClosed {
		t.Fatalf("idle reap got %+v, want closed error", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never reaped: %+v", srv.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServeConnLossCancelsInflightQuery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, db, addr := startServer(t, server.Config{})
	if err := db.LoadRST(0.3, 0.3, 0.3); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(wire.Request{ID: 1, Op: wire.OpQuery, Strategy: "canonical",
		SQL: `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`})
	if _, err := conn.Write(append(req, '\n')); err != nil {
		t.Fatal(err)
	}
	// Wait until the query is actually inside the engine, then vanish.
	deadline := time.Now().Add(5 * time.Second)
	for db.InflightQueries() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(1 * time.Millisecond)
	}
	conn.Close()
	// The session reader sees the dead socket and cancels the request
	// context; the engine aborts within one morsel.
	deadline = time.Now().Add(5 * time.Second)
	for db.InflightQueries() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight query survived its connection")
		}
		time.Sleep(1 * time.Millisecond)
	}
}

func TestServeGracefulDrain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	testutil.VerifyNoFDLeaks(t)
	srv, db, addr := startServer(t, server.Config{})
	seedTable(t, db)

	// An established idle session should get a typed closed frame.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// Make sure the session exists before Shutdown.
	if resp := rawExchange(t, idle, wire.Request{ID: 1, Op: wire.OpPing}); resp.Server == nil {
		t.Fatalf("ping got %+v", resp)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	resp := readResp(t, idle)
	if resp.Error == nil || resp.Error.Kind != wire.KindClosed {
		t.Fatalf("drained session got %+v, want closed error", resp)
	}
	if err := <-done; err != nil {
		t.Fatalf("drain returned %v, want nil", err)
	}

	// New connections are refused after drain (either a typed closed
	// frame from a race with listener close, or a dial error).
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
	}
	if st := srv.Stats(); !st.Draining || st.Sessions != 0 {
		t.Fatalf("post-drain stats %+v, want draining with 0 sessions", st)
	}
}

func TestServeDrainTimeoutForcesCancel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, db, addr := startServer(t, server.Config{})
	if err := db.LoadRST(0.3, 0.3, 0.3); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, _ := json.Marshal(wire.Request{ID: 7, Op: wire.OpQuery, Strategy: "canonical",
		SQL: `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`})
	if _, err := conn.Write(append(req, '\n')); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.InflightQueries() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(1 * time.Millisecond)
	}

	// An already-expired drain deadline: Shutdown must cancel the busy
	// session rather than wait for the query.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	// The cancelled query surfaces as a canceled error frame to the
	// still-connected client.
	resp := readResp(t, conn)
	if resp.Error == nil {
		t.Fatalf("forced-drain query got %+v, want an error", resp)
	}
	if resp.Error.Kind != wire.KindCanceled && resp.Error.Kind != wire.KindClosed {
		t.Fatalf("forced-drain error kind %q, want canceled or closed", resp.Error.Kind)
	}
	if n := db.InflightQueries(); n != 0 {
		t.Fatalf("%d queries still in flight after forced drain", n)
	}
}

func TestServeSessionSurvivesMalformedFrame(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, db, addr := startServer(t, server.Config{})
	seedTable(t, db)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if resp := rawExchange(t, conn, wire.Request{}); resp.Error == nil {
		t.Fatalf("empty op got %+v, want protocol error", resp)
	}
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, conn); resp.Error == nil || resp.Error.Kind != wire.KindProtocol {
		t.Fatalf("garbage frame got %+v, want protocol error", resp)
	}
	// A frame from a client that still sends the retired "path" field is
	// served; the key is ignored like any unknown one.
	if _, err := conn.Write([]byte(`{"id":2,"op":"set","path":"row"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, conn); !resp.OK {
		t.Fatalf("set with a retired key got %+v, want ok", resp)
	}
	// The session is still usable afterwards.
	resp := rawExchange(t, conn, wire.Request{ID: 3, Op: wire.OpQuery, SQL: "SELECT k FROM kv WHERE k = 1"})
	rows, err := wire.DecodeRows(resp.Rows)
	if !resp.OK || err != nil || len(rows) != 1 || rows[0][0].String() != "1" {
		t.Fatalf("post-garbage query got %+v (rows %v, %v), want the one row (1)", resp, rows, err)
	}
}

// TestServedRowsKeepInvalidUTF8: a string that is not valid UTF-8 is
// served as the bytes the embedded query returns. A JSON string cannot
// carry it — encoding/json would hand back "a\uFFFDb" — so this pins that
// the rows travel as bytes.
func TestServedRowsKeepInvalidUTF8(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, db, addr := startServer(t, server.Config{})
	if err := db.CreateTable("u", []disqo.Column{{Name: "s", Type: types.KindString}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("u", []disqo.Value{types.NewString("a\xffb")}); err != nil {
		t.Fatal(err)
	}
	c, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sql = "SELECT s FROM u"
	served, err := c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	local, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(served.Rows) != 1 || len(local.Rows) != 1 || !types.TuplesIdentical(served.Rows[0], local.Rows[0]) {
		t.Fatalf("served rows %q, embedded rows %q", served.Rows, local.Rows)
	}
}

func TestClientReconnectAfterServerRestart(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	testutil.VerifyNoFDLeaks(t)
	dir := t.TempDir()

	db1, err := disqo.Open(disqo.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := server.New(server.Config{DB: db1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done1 := make(chan error, 1)
	go func() { done1 <- srv1.Serve(ln) }()

	c, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("q", "SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}

	// Kill the server (no drain — the client must see a dead conn).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv1.Shutdown(ctx)
	cancel()
	<-done1
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same port, recovered from the same directory.
	db2, err := disqo.Open(disqo.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.New(server.Config{DB: db2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln2) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		<-done2
		db2.Close()
	}()

	// The read path reconnects transparently — and replays the prepared
	// statement into the fresh server session.
	res, err := c.QueryPrepared(context.Background(), "q")
	if err != nil {
		t.Fatalf("prepared query across restart: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows across restart, want 2", len(res.Rows))
	}
}
