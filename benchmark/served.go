package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"disqo"
	"disqo/internal/catalog"
	"disqo/internal/server"
	"disqo/internal/types"
	"disqo/internal/wal"
)

const (
	// servedConstants is the domain the point_exists constant cycles
	// through, four per pass.
	servedConstants = 16
	// servedMarker is the b1 value inserted rows start at; delete_s
	// removes everything at or above it, so table sizes are stationary.
	servedMarker = 1_000_000
	// servedInsertRows is the number of rows one insert_s adds.
	servedInsertRows = 4
)

// servedSQL holds served_mixed's statement texts for one catalog. The
// constants follow the generated rows (see threshold): point_exists asks
// for one a3 value and either a matching s row in the top sixth of b4 or
// an a4 in the top thirtieth, update_t has a disjunctive WHERE.
type servedSQL struct {
	q1, q2      string
	pointExists func(k int) string
	updateT     string
}

const sqlDeleteS = `DELETE FROM s WHERE b1 >= 1000000`

func newServedSQL(cat *catalog.Catalog) (*servedSQL, error) {
	q1, err := sqlQ1(cat)
	if err != nil {
		return nil, err
	}
	q2, err := sqlQ2(cat)
	if err != nil {
		return nil, err
	}
	c, err := thresholds(cat, cut{"s", "b4", 1.0 / 6}, cut{"r", "a4", 1.0 / 30}, cut{"t", "c4", 1.0 / 60})
	if err != nil {
		return nil, err
	}
	return &servedSQL{
		q1: q1, q2: q2,
		pointExists: func(k int) string {
			return fmt.Sprintf(`SELECT DISTINCT * FROM r
	        WHERE a3 = %d AND (EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > %d) OR a4 > %d)`, k, c[0], c[1])
		},
		updateT: fmt.Sprintf(`UPDATE t SET c3 = c3 + 1 WHERE c2 = 7 OR c4 > %d`, c[2]),
	}, nil
}

// servedReadStmts are the read statements the oracle checks on the
// down-scaled database.
func servedReadStmts(cat *catalog.Catalog) ([]namedStmt, error) {
	sq, err := newServedSQL(cat)
	if err != nil {
		return nil, err
	}
	return []namedStmt{{"q1_link", sq.q1}, {"q2_corr", sq.q2},
		{"point_exists", sq.pointExists(0)}, {"point_exists", sq.pointExists(servedConstants - 1)}}, nil
}

// insertRows are the rows the n-th insert_s of a pass adds: they match
// existing correlation values and pass the b4 filters, so every read
// class returns something different before and after.
func insertRows(n, corrDomain int) [][]types.Value {
	rows := make([][]types.Value, servedInsertRows)
	for i := range rows {
		j := n*servedInsertRows + i
		rows[i] = []types.Value{
			types.NewInt(int64(servedMarker + j)),
			types.NewInt(int64(j * 37 % corrDomain)),
			types.NewInt(int64(j)),
			types.NewInt(int64(2900 + j)),
		}
	}
	return rows
}

func sqlInsert(table string, rows [][]types.Value) string {
	tuples := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
		}
		tuples[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	return "INSERT INTO " + table + " VALUES " + strings.Join(tuples, ", ")
}

// setupServed builds the served_mixed instance: a durable engine that
// fsyncs every statement, an in-process server on loopback, and one
// client connection issuing a fixed 20-op cycle. The cycle has four
// read segments of [point_exists, point_exists, q1_link, q2_corr], each
// followed by one write:
//
//	segment 1 → insert_s   segment 2 → insert_s
//	segment 3 → update_t   segment 4 → delete_s
//
// Every read references s (and r), so each write to s empties the result
// cache for them and the write to t does not: segment 4 repeats segment
// 3's statements and is served from the result cache, segments 1–3
// execute. Exactly 4 of a pass's 16 reads are result-cache hits, so a
// class's median and p90 are those of executed reads, and with one
// connection every count repeats.
func setupServed(spec rstSpec) func(*workload, uint64, string) (*instance, error) {
	return func(w *workload, seed uint64, scratch string) (*instance, error) {
		in := &instance{w: w, seed: seed, overWire: true}
		dir, err := os.MkdirTemp(scratch, "served-")
		if err != nil {
			return nil, err
		}
		if err := generateAndLoad(in, seed, spec.sf, 0,
			disqo.WithDataDir(dir), disqo.WithSyncEvery(1)); err != nil {
			return nil, err
		}
		db := in.db
		sq, err := newServedSQL(in.cat)
		if err != nil {
			return nil, err
		}
		baseS, err := db.RowCount("s")
		if err != nil {
			return nil, err
		}
		baseT, err := db.RowCount("t")
		if err != nil {
			return nil, err
		}
		sTable, err := in.cat.Lookup("s")
		if err != nil {
			return nil, err
		}
		baseSRows := sTable.Rel.Tuples

		srv, err := server.New(server.Config{DB: db})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		client, err := disqo.Dial(ln.Addr().String(), disqo.WithClientRequestTimeout(opDeadline))
		if err != nil {
			return nil, err
		}

		read := func(class string, stmts []string) op {
			return op{
				class: w.classIndex(class),
				stmts: stmts,
				do:    func(v int) (outcome, error) { return readOutcome(client.Query(stmts[v])) },
				ref: func(v int) (outcome, error) {
					return readOutcome(db.Query(stmts[v], disqo.WithTimeout(opDeadline)))
				},
			}
		}
		write := func(class, sql string, mirror func(*catalog.Catalog) error) op {
			return op{
				class:  w.classIndex(class),
				stmts:  []string{sql},
				do:     func(int) (outcome, error) { return writeOutcome(client.Exec(sql)) },
				ref:    func(int) (outcome, error) { return writeOutcome(db.Exec(sql)) },
				mirror: mirror,
			}
		}
		// pointExists(j) is the op whose variant v asks for constant
		// 4v+j: a pass uses four constants, a different four each pass.
		pointExists := func(j int) op {
			stmts := make([]string, servedConstants/4)
			for v := range stmts {
				stmts[v] = sq.pointExists(4*v + j)
			}
			return read("point_exists", stmts)
		}
		segment := func(j int) []op {
			return []op{pointExists(j), pointExists(j + 1),
				read("q1_link", []string{sq.q1}), read("q2_corr", []string{sq.q2})}
		}
		corr := baseS / 10
		insert := func(n int) op {
			rows := insertRows(n, corr)
			return write("insert_s", sqlInsert("s", rows), func(cat *catalog.Catalog) error {
				return cat.InsertRows("s", rows...)
			})
		}
		in.cycle = append(in.cycle, segment(0)...)
		in.cycle = append(in.cycle, insert(0))
		in.cycle = append(in.cycle, segment(0)...)
		in.cycle = append(in.cycle, insert(1))
		in.cycle = append(in.cycle, segment(2)...)
		in.cycle = append(in.cycle, write("update_t", sq.updateT, nil))
		in.cycle = append(in.cycle, segment(2)...)
		in.cycle = append(in.cycle, write("delete_s", sqlDeleteS, func(cat *catalog.Catalog) error {
			return cat.ReplaceRows("s", baseSRows)
		}))
		in.refPasses = servedConstants / 4

		in.oracle = func() error { return in.oracleCheck(spec.oracleSF, 0, servedReadStmts) }

		readsPerPass, hitsPerPass, writesPerPass := 16, 4, 4
		in.invariant = func(ws *window) []string {
			var bad []string
			passes := int64(ws.passes)
			if got, want := ws.cache.Result.Hits, passes*int64(hitsPerPass); got != want {
				bad = append(bad, fmt.Sprintf("result cache hits %d, the cycle predicts %d", got, want))
			}
			if got, want := ws.cache.Result.Misses, passes*int64(readsPerPass-hitsPerPass); got != want {
				bad = append(bad, fmt.Sprintf("result cache misses %d, the cycle predicts %d", got, want))
			}
			if got, want := int64(ws.wal.Appends), passes*int64(writesPerPass); got != want {
				bad = append(bad, fmt.Sprintf("WAL appends %d, the cycle predicts %d", got, want))
			}
			if ws.wal.Syncs != ws.wal.Appends {
				bad = append(bad, fmt.Sprintf("%d fsyncs for %d acknowledged writes", ws.wal.Syncs, ws.wal.Appends))
			}
			return bad
		}
		in.probes = func(m map[string]float64) error { return servedProbes(in, client, sq.q1, scratch, m) }

		// teardown ends with the durability check: after a clean close the
		// reopened directory must hold exactly the state the acknowledged
		// statements produced, with the table sizes the cycle predicts.
		in.teardown = func() (int, error) {
			failed := 0
			client.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				return failed, err
			}
			if err := <-serveDone; err != nil {
				return failed, err
			}
			fp := db.StateFingerprint()
			if err := db.Close(); err != nil {
				return failed, err
			}
			re, err := disqo.Open(disqo.WithDataDir(dir))
			if err != nil {
				return failed, fmt.Errorf("reopening %s: %w", dir, err)
			}
			if got := re.StateFingerprint(); got != fp {
				failed++
				logf("DURABILITY FAIL: state fingerprint %x before close, %x after reopen", fp, got)
			}
			for table, want := range map[string]int{"s": baseS, "t": baseT} {
				if got, err := re.RowCount(table); err != nil || got != want {
					failed++
					logf("DURABILITY FAIL: table %s has %d rows after reopen (err %v), the cycle predicts %d", table, got, err, want)
				}
			}
			if err := re.Close(); err != nil {
				return failed, err
			}
			return failed, os.RemoveAll(dir)
		}
		return in, nil
	}
}

// servedProbes measures the serving layers on their own, from outside:
// the protocol floor (ping), what serving adds to a statement both sides
// answer from the result cache, and the log's append and fsync on a
// scratch directory with the workload's own write statements.
func servedProbes(in *instance, client *disqo.Client, q1, scratch string, m map[string]float64) error {
	const reps = 200
	pings := make([]float64, reps)
	for i := range pings {
		start := time.Now()
		if _, err := client.Ping(context.Background()); err != nil {
			return err
		}
		pings[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	m["server.ping_p50_us"] = percentile(pings, 0.5)

	// q1_link carries the largest result. Prime the result cache, then
	// alternate served and embedded calls: both are hits, so the
	// difference is what the server, the codec and the socket cost.
	if _, err := client.Query(q1); err != nil {
		return err
	}
	var served, embedded []float64
	for i := 0; i < 30; i++ {
		start := time.Now()
		if _, err := client.Query(q1); err != nil {
			return err
		}
		served = append(served, float64(time.Since(start).Nanoseconds())/1e6)
		start = time.Now()
		if _, err := in.db.Query(q1); err != nil {
			return err
		}
		embedded = append(embedded, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["server.serve_overhead_ms"] = percentile(served, 0.5) - percentile(embedded, 0.5)

	// One log that never syncs gives the cost of framing and writing a
	// record; one that syncs every record adds the fsync.
	var bodies [][]byte
	for i := range in.cycle {
		if in.w.classes[in.cycle[i].class].write {
			bodies = append(bodies, []byte(in.cycle[i].stmts[0]))
		}
	}
	appendP50 := func(syncEvery int) (float64, error) {
		sub, err := os.MkdirTemp(scratch, "walprobe-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(sub)
		log, err := wal.Open(sub, 0, wal.Options{SyncEvery: syncEvery})
		if err != nil {
			return 0, err
		}
		defer log.Close()
		lat := make([]float64, reps)
		for i := range lat {
			start := time.Now()
			if _, err := log.Append(wal.KindSQL, uint64(i), bodies[i%len(bodies)]); err != nil {
				return 0, err
			}
			lat[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
		return percentile(lat, 0.5), nil
	}
	noSync, err := appendP50(1 << 30)
	if err != nil {
		return err
	}
	withSync, err := appendP50(1)
	if err != nil {
		return err
	}
	m["wal.append_us"] = noSync
	m["wal.fsync_p50_us"] = max(withSync-noSync, 0)
	return nil
}
