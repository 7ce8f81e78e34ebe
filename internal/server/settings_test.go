package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"disqo"
	"disqo/internal/server"
	"disqo/internal/testutil"
	"disqo/internal/types"
	"disqo/internal/wire"
)

// settingsSQL observes both settings: its correlated subquery is
// evaluated once per row of t by canonical strategies and never by
// unnested ones, and NOT (a = 1) keeps t's NULL row under 2vl only.
const settingsSQL = `SELECT DISTINCT * FROM t WHERE b = (SELECT COUNT(*) FROM u WHERE c = a) OR NOT (a = 1)`

// outcome is what a surface must agree on: the sorted rows and the
// number of subquery evaluations.
type outcome struct {
	rows  string
	evals int64
}

func outcomeOf(rows [][]types.Value, evals int64) outcome {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprint(r)
	}
	sort.Strings(lines)
	return outcome{fmt.Sprint(lines), evals}
}

// serveOn starts a server over db on addr and returns the address it
// listens on and a stop that shuts it down, leaving db open, so a test
// can restart the server on the same address.
func serveOn(t *testing.T, db *disqo.DB, addr string) (string, func()) {
	t.Helper()
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}
}

// TestSettingsReachEverySurface: every setting of the table, at every
// legal value, gives the same rows and subquery evaluations embedded
// (db.Query with the setting's option), through Client.Set on a live
// session, through the client's replay after the server restarts, and
// in a raw query frame's settings. A bad name or value is invalid and
// leaves the session as it was.
func TestSettingsReachEverySurface(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, sql := range []string{
		"CREATE TABLE t (a INTEGER, b INTEGER)",
		"INSERT INTO t VALUES (1, 1), (2, 0), (NULL, 5)",
		"CREATE TABLE u (c INTEGER)",
		"INSERT INTO u VALUES (1), (2), (2)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}

	addr, stop := serveOn(t, db, "127.0.0.1:0")
	defer func() { stop() }()
	query := func(c *disqo.Client) outcome {
		t.Helper()
		res, err := c.Query(settingsSQL)
		if err != nil {
			t.Fatal(err)
		}
		return outcomeOf(res.Rows, res.Stats.SubqueryEvals)
	}
	raw := func(settings map[string]string) (outcome, *wire.Error) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		resp := rawExchange(t, conn, wire.Request{ID: 1, Op: wire.OpQuery, SQL: settingsSQL, Settings: settings})
		if resp.Error != nil {
			return outcome{}, resp.Error
		}
		rows, err := wire.DecodeRows(resp.Rows)
		if err != nil {
			t.Fatal(err)
		}
		return outcomeOf(rows, resp.Stats.SubqueryEvals), nil
	}

	got := map[string]outcome{}
	for _, st := range disqo.SettingsTable() {
		for _, v := range st.Values {
			name := st.Name + "=" + v
			set := map[string]string{st.Name: v}
			settings, err := disqo.Settings{}.With(set)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(settingsSQL, settings.Options()...)
			if err != nil {
				t.Fatalf("%s embedded: %v", name, err)
			}
			want := outcomeOf(res.Rows, res.Stats.SubqueryEvals)
			got[name] = want

			c, err := disqo.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Set(st.Name, v); err != nil {
				t.Fatalf("%s: Set: %v", name, err)
			}
			if o := query(c); o != want {
				t.Errorf("%s: Client.Set gives %+v, embedded %+v", name, o, want)
			}
			stop()
			addr, stop = serveOn(t, db, addr)
			if o := query(c); o != want {
				t.Errorf("%s: after a restart the client gives %+v, embedded %+v", name, o, want)
			}
			c.Close()
			if o, werr := raw(set); werr != nil || o != want {
				t.Errorf("%s: a query frame's settings give %+v (%v), embedded %+v", name, o, werr, want)
			}
		}
	}
	if got["strategy=canonical"].evals == 0 || got["strategy=unnested"].evals != 0 {
		t.Errorf("strategy unobserved: canonical %d subquery evals, unnested %d",
			got["strategy=canonical"].evals, got["strategy=unnested"].evals)
	}
	if got["nulls=2vl"].rows == got["nulls=3vl"].rows {
		t.Errorf("nulls unobserved: both modes return %s", got["nulls=2vl"].rows)
	}

	// A bad name or value is invalid and changes nothing: the session
	// keeps canonical, and a set naming one good and one bad setting
	// applies neither.
	c, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("strategy", "canonical"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]string{{"bogus", "1"}, {"strategy", "bogus"}, {"nulls", "4vl"}} {
		var se *disqo.ServerError
		if err := c.Set(bad[0], bad[1]); !errors.As(err, &se) || se.Kind != wire.KindInvalid {
			t.Errorf("Set(%s, %s) = %v, want an invalid ServerError", bad[0], bad[1], err)
		}
	}
	if o := query(c); o != got["strategy=canonical"] {
		t.Errorf("after rejected sets the session gives %+v, want canonical's %+v", o, got["strategy=canonical"])
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, req := range []wire.Request{
		{ID: 1, Op: wire.OpSet, Settings: map[string]string{"strategy": "canonical"}},
		{ID: 2, Op: wire.OpSet, Settings: map[string]string{"strategy": "unnested", "nulls": "4vl"}},
		{ID: 3, Op: wire.OpQuery, SQL: settingsSQL, Settings: map[string]string{"nulls": "2vl", "bogus": "1"}},
	} {
		resp := rawExchange(t, conn, req)
		if ok := req.ID == 1; (resp.Error == nil) != ok || (!ok && resp.Error.Kind != wire.KindInvalid) {
			t.Errorf("%s %v: %+v", req.Op, req.Settings, resp.Error)
		}
	}
	resp := rawExchange(t, conn, wire.Request{ID: 4, Op: wire.OpQuery, SQL: settingsSQL})
	if resp.Error != nil || resp.Stats.SubqueryEvals != got["strategy=canonical"].evals || resp.Stats.Rows != 2 {
		t.Errorf("after a rejected set the session gives %+v %+v, want canonical and 3vl", resp.Error, resp.Stats)
	}

	// The retired per-setting keys are unknown keys now: ignored.
	if _, err := conn.Write([]byte(`{"id":5,"op":"query","strategy":"canonical","nulls":"2vl","sql":"` + settingsSQL + `"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, conn); resp.Error != nil || resp.Stats.Rows != 2 {
		t.Errorf("retired keys: %+v %+v, want them ignored", resp.Error, resp.Stats)
	}
}

// TestClientSettingsConcurrent: one client's settings and request
// timeout are changed from several goroutines that also query through
// it, while the server restarts under them and the client's reconnects
// replay the settings.
func TestClientSettingsConcurrent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, err := disqo.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedTable(t, db)
	addr, stop := serveOn(t, db, "127.0.0.1:0")
	defer func() { stop() }()
	c, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				st := disqo.SettingsTable()[(g+i)%len(disqo.SettingsTable())]
				if err := c.Set(st.Name, st.Values[i%len(st.Values)]); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				c.SetTimeout(time.Duration(i%3) * time.Second)
				if _, err := c.Query("SELECT k FROM kv WHERE k = 1"); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		stop()
		addr, stop = serveOn(t, db, addr)
	}
	wg.Wait()
}

// TestStrategySurface: the product offers three strategies. The strategy
// setting's legal values are exactly canonical, unnested and costbased;
// a baseline's name is a bad value for Settings.With, which leaves the
// settings as they were, and for a served Client.Set, which the server
// rejects as invalid.
func TestStrategySurface(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var values []string
	for _, st := range disqo.SettingsTable() {
		if st.Name == "strategy" {
			values = append([]string(nil), st.Values...)
		}
	}
	sort.Strings(values)
	if fmt.Sprint(values) != "[canonical costbased unnested]" {
		t.Errorf("strategy values = %v, want canonical, costbased and unnested", values)
	}

	base, err := disqo.Settings{}.With(map[string]string{"strategy": "canonical"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := base.With(map[string]string{"strategy": "s2"})
	if err == nil || got.String() != base.String() {
		t.Errorf("With(strategy=s2) = %s, %v; want an error and %s unchanged", got, err, base)
	}

	db, err := disqo.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addr, stop := serveOn(t, db, "127.0.0.1:0")
	defer stop()
	c, err := disqo.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var se *disqo.ServerError
	if err := c.Set("strategy", "s1"); !errors.As(err, &se) || se.Kind != wire.KindInvalid {
		t.Errorf(`Set("strategy", "s1") = %v, want an invalid ServerError`, err)
	}
}
