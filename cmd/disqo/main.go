// Command disqo is an interactive SQL shell over a generated dataset.
//
// Usage:
//
//	disqo -rst 0.1                 # REPL over RST at 1,000 rows per table
//	disqo -tpch 0.01               # REPL over TPC-H SF 0.01
//	disqo -rst 0.1 -e "SELECT ..." # one-shot query
//	disqo -strategy canonical ...  # pick an evaluation strategy
//	disqo -seed 319                # reproduce adversarial scenario 319
//	disqo -connect localhost:4333  # remote shell against a disqod server
//
// Inside the REPL:
//
//	\explain SELECT ...           show canonical + optimized plans and rewrites
//	\explain analyze SELECT ...   execute and annotate the physical plan
//	\analyze SELECT ...           same as \explain analyze
//	\stats                        show the last query's execution counters
//	\cache                        show plan/result cache counters
//	\checkpoint                   snapshot the catalog and truncate the WAL (-data)
//	\wal                          show write-ahead log counters (-data)
//	\top [n]                      top statements by total wall time
//	\slow                         dump the slow-query ring
//	\strategy s2                  switch strategy
//	\set nulls 2vl                switch null semantics (2vl or 3vl)
//	\tables                       list tables
//	\q                            quit
//
// With -trace spans.jsonl every query streams per-operator
// open/morsel/close events as JSON lines to the file.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"disqo"
	"disqo/internal/scenario"
	"disqo/internal/sqlparser"
)

func main() {
	var (
		rstSF     = flag.Float64("rst", 0, "load RST at this scale factor (paper SF 1 = 10,000 rows)")
		tpchSF    = flag.Float64("tpch", 0, "load TPC-H at this scale factor")
		full      = flag.Bool("tpch-all", false, "generate all 8 TPC-H tables (default: the 5 Query 2d uses)")
		strategy  = flag.String("strategy", string(disqo.Unnested), "evaluation strategy: "+strategyNames)
		nulls     = flag.String("nulls", "3vl", "null semantics: 3vl (SQL three-valued) or 2vl (NULL comparisons are false)")
		seedFlag  = flag.String("seed", "", "reproduce adversarial scenario N: load its generated tables and run its query (combine with -strategy/-nulls to compare matrix cells; -e overrides the query)")
		execSQL   = flag.String("e", "", "execute one statement and exit")
		explain   = flag.Bool("explain", false, "with -e: explain instead of executing")
		timeout   = flag.Duration("timeout", 0, "query timeout (0 = none)")
		maxConc   = flag.Int("max-concurrent", 0, "admission limit on concurrent queries (0 = engine default, <0 = unlimited)")
		traceOut  = flag.String("trace", "", "stream per-operator spans as JSON lines to this file")
		noCache   = flag.Bool("no-cache", false, "disable the plan and result caches (every query re-plans and re-executes)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /statz and /debug/pprof on this address (e.g. localhost:6060)")
		slowAfter = flag.Duration("slow-after", 0, "capture queries at or over this duration in the slow-query log (see \\slow)")
		dataDir   = flag.String("data", "", "durable mode: write-ahead log and checkpoints in this directory (recovers on start)")
		syncEvery = flag.Int("sync-every", 0, "with -data: fsync the WAL after every nth record (group commit; 0/1 = every record)")
		syncEach  = flag.Duration("sync-interval", 0, "with -data: background WAL fsync interval (bounds a group-commit batch's age)")
		ckptEvery = flag.Int("checkpoint-every", 0, "with -data: auto-checkpoint after every n logged records (0 = manual \\checkpoint only)")
		connect   = flag.String("connect", "", "connect to a disqod server at this address instead of embedding the engine")
	)
	flag.Parse()

	if *connect != "" {
		connectMode(*connect, *execSQL, *timeout)
		return
	}

	openOpts := []disqo.OpenOption{disqo.WithMaxConcurrent(*maxConc)}
	if *noCache {
		openOpts = append(openOpts, disqo.WithoutCache())
	}
	if *debugAddr != "" {
		openOpts = append(openOpts, disqo.WithDebugAddr(*debugAddr))
	}
	if *slowAfter > 0 {
		openOpts = append(openOpts, disqo.WithSlowQueryThreshold(*slowAfter))
	}
	if *dataDir != "" {
		openOpts = append(openOpts, disqo.WithDataDir(*dataDir),
			disqo.WithSyncEvery(*syncEvery), disqo.WithSyncInterval(*syncEach),
			disqo.WithCheckpointEvery(*ckptEvery))
	}
	db, err := disqo.Open(openOpts...)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if *dataDir != "" {
		ws := db.WorkloadStats()
		tables := "no tables"
		if ts := db.Tables(); len(ts) > 0 {
			tables = strings.Join(ts, ", ")
		}
		fmt.Fprintf(os.Stderr, "durable mode: %s (recovered %d WAL records; %s)\n",
			*dataDir, ws.RecoveryReplayedRecords, tables)
	}
	if *debugAddr != "" {
		addr, err := db.DebugAddr()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "debug listener on http://%s (/metrics, /statz, /debug/pprof)\n", addr)
	}
	if *rstSF > 0 {
		if err := db.LoadRST(*rstSF, *rstSF, *rstSF); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded RST at SF %g (%d rows per table)\n", *rstSF, int(*rstSF*10000))
	}
	if *tpchSF > 0 {
		tables := []string(nil)
		if *full {
			tables = []string{"all"}
		}
		if err := db.LoadTPCH(*tpchSF, tables...); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded TPC-H at SF %g: %s\n", *tpchSF, strings.Join(db.Tables(), ", "))
	}
	scenarioSQL := ""
	if *seedFlag != "" {
		n, err := strconv.ParseUint(*seedFlag, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -seed %q (want an unsigned integer)", *seedFlag))
		}
		sc := scenario.Generate(n)
		if err := scenario.Load(db, sc); err != nil {
			fatal(err)
		}
		scenarioSQL = sc.Query.SQL()
		fmt.Fprintf(os.Stderr, "loaded scenario seed %d (%s shape, %d tables)\nquery: %s\n",
			n, sc.Query.Shape, len(sc.Tables), scenarioSQL)
	}
	if *rstSF == 0 && *tpchSF == 0 && *seedFlag == "" {
		fmt.Fprintln(os.Stderr, "no data loaded; use -rst, -tpch or -seed (see -h)")
	}

	sess := &session{db: db, timeout: *timeout}
	var ok bool
	if sess.strategy, ok = disqo.ParseStrategy(*strategy); !ok {
		fatal(fmt.Errorf("bad -strategy %q (want %s)", *strategy, strategyNames))
	}
	if sess.nulls, ok = disqo.ParseNullMode(*nulls); !ok {
		fatal(fmt.Errorf("bad -nulls %q (want 2vl or 3vl)", *nulls))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sess.tracer = newJSONLTracer(f)
	}
	// -seed without -e is a one-shot reproduction: run the scenario's
	// generated query under the chosen strategy/nulls and exit.
	if *execSQL == "" && scenarioSQL != "" {
		*execSQL = scenarioSQL
	}
	if *execSQL != "" {
		if *explain {
			sess.explain(*execSQL)
		} else {
			sess.run(*execSQL)
		}
		return
	}
	repl(func() string { return string(sess.strategy) }, sess.command, sess.run)
}

type session struct {
	db       *disqo.DB
	strategy disqo.Strategy
	timeout  time.Duration
	tracer   *jsonlTracer
	// nulls selects the null semantics every query runs under
	// (\set nulls 2vl|3vl).
	nulls disqo.NullMode
	// last is the most recent successful query result, for \stats.
	last *disqo.Result
}

// strategyNames is what a rejected strategy name is answered with.
const strategyNames = "s1|s2|s3|canonical|unnested|costbased"

func (s *session) options() []disqo.Option {
	opts := []disqo.Option{disqo.WithStrategy(s.strategy), disqo.WithNullMode(s.nulls)}
	if s.timeout > 0 {
		opts = append(opts, disqo.WithTimeout(s.timeout))
	}
	if s.tracer != nil {
		opts = append(opts, disqo.WithTracer(s.tracer))
	}
	return opts
}

// queryContext returns a context that a single Ctrl-C cancels, so an
// interrupt aborts the running query instead of the shell. The stop
// function restores default signal handling, making a second Ctrl-C
// (or one at the prompt) kill the process as usual.
func queryContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

func reportError(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "canceled")
		return
	}
	if errors.Is(err, disqo.ErrOverloaded) {
		fmt.Fprintln(os.Stderr, "overloaded: too many concurrent queries, retry shortly")
		return
	}
	fmt.Fprintf(os.Stderr, "error: %v\n", err)
}

// isQuery routes a statement for both shells: what parses as a SELECT
// goes to Query, everything else to Exec — DDL and DML, and text that
// does not parse at all, which Exec rejects with the parser's error.
// The parser decides, not the text's first word: a statement may open
// with a comment.
func isQuery(sql string) bool {
	stmt, err := sqlparser.ParseStatement(sql)
	_, sel := stmt.(*sqlparser.SelectStmt)
	return err == nil && sel
}

func (s *session) run(sql string) {
	if !isQuery(sql) {
		n, err := s.db.Exec(sql)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		fmt.Printf("ok (%d rows affected)\n", n)
		return
	}
	ctx, stop := queryContext()
	res, err := s.db.QueryContext(ctx, sql, s.options()...)
	stop()
	if err != nil {
		reportError(err)
		return
	}
	s.last = res
	fmt.Print(res.String())
	fmt.Printf("elapsed: %s  comparisons: %d  subquery evals: %d\n",
		res.Elapsed.Round(time.Microsecond), res.Stats.Comparisons, res.Stats.SubqueryEvals)
	if len(res.Rewrites) > 0 {
		fmt.Printf("rewrites: %s\n", strings.Join(res.Rewrites, "; "))
	}
}

func (s *session) explain(sql string) {
	out, err := s.db.Explain(sql, s.options()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Print(out)
}

func (s *session) analyze(sql string) {
	ctx, stop := queryContext()
	out, err := s.db.Analyze(sql, append(s.options(), disqo.WithContext(ctx))...)
	stop()
	if err != nil {
		reportError(err)
		return
	}
	fmt.Print(out)
	cs := s.db.CacheStats()
	fmt.Printf("cache: plan %d/%d hit/miss, result %d/%d hit/miss (%d waits)\n",
		cs.Plan.Hits, cs.Plan.Misses, cs.Result.Hits, cs.Result.Misses, cs.Result.Waits)
}

// cacheReport prints the DB-wide cache counters, one line per tier.
func (s *session) cacheReport() {
	cs := s.db.CacheStats()
	row := func(name string, t disqo.CacheTierStats) {
		fmt.Printf("%-7s hits: %-7d misses: %-7d waits: %-5d evictions: %-5d invalidations: %-5d entries: %-5d bytes: %d\n",
			name, t.Hits, t.Misses, t.Waits, t.Evictions, t.Invalidations, t.Entries, t.Bytes)
	}
	row("plan", cs.Plan)
	row("result", cs.Result)
}

// top prints the n statements that consumed the most total wall time,
// with their p95 latency and cache-hit rate.
func (s *session) top(n int) {
	ws := s.db.WorkloadStats()
	if !ws.Enabled {
		fmt.Println("telemetry is disabled")
		return
	}
	if len(ws.Statements) == 0 {
		fmt.Println("no statements observed yet")
		return
	}
	if n > len(ws.Statements) {
		n = len(ws.Statements)
	}
	fmt.Printf("%-8s %-7s %-6s %-5s %-10s %-10s %-8s  %s\n",
		"calls", "errors", "sheds", "hit%", "total", "p95", "fp", "sql")
	for _, st := range ws.Statements[:n] {
		sql := st.SQL
		if len(sql) > 60 {
			sql = sql[:57] + "..."
		}
		fmt.Printf("%-8d %-7d %-6d %-5.0f %-10s %-10s %-8s  %s\n",
			st.Calls, st.Errors, st.Sheds, 100*st.CacheHitRate(),
			st.TotalWall.Round(time.Microsecond),
			st.Latency.P95.Round(time.Microsecond),
			st.Fingerprint[:8], sql)
	}
	if ws.DroppedStatements > 0 {
		fmt.Printf("(%d observations dropped: statement registry full)\n", ws.DroppedStatements)
	}
}

// slow dumps the slow-query ring, newest first.
func (s *session) slow() {
	ws := s.db.WorkloadStats()
	if !ws.Enabled {
		fmt.Println("telemetry is disabled")
		return
	}
	if ws.SlowTotal == 0 {
		fmt.Println("no slow queries captured (arm with -slow-after)")
		return
	}
	fmt.Printf("%d slow queries captured, showing newest %d:\n", ws.SlowTotal, len(ws.SlowQueries))
	for _, q := range ws.SlowQueries {
		fmt.Printf("\n[%s] %s  strategy=%s rows=%d\n",
			q.Time.Format("15:04:05.000"), q.Elapsed.Round(time.Microsecond),
			q.Strategy, q.Rows)
		fmt.Printf("  %s\n", q.SQL)
		if q.Err != "" {
			fmt.Printf("  error: %s\n", q.Err)
		}
		if q.Plan != "" {
			for _, line := range strings.Split(strings.TrimRight(q.Plan, "\n"), "\n") {
				fmt.Printf("  %s\n", line)
			}
		}
	}
}

// wal prints the write-ahead log's counters (durable mode only).
func (s *session) wal() {
	st, ok := s.db.WALStats()
	if !ok {
		fmt.Println("not in durable mode (start with -data <dir>)")
		return
	}
	ws := s.db.WorkloadStats()
	fmt.Printf("appends:    %-8d (%d bytes)\n", st.Appends, st.AppendedBytes)
	fmt.Printf("fsyncs:     %-8d (%d bytes; p95 %s)\n", st.Syncs, st.SyncedBytes, st.Fsync.P95.Round(time.Microsecond))
	fmt.Printf("pending:    %d records unsynced\n", st.PendingRecords)
	fmt.Printf("last LSN:   %d\n", st.LastLSN)
	fmt.Printf("truncations: %d (checkpoints)\n", st.Truncations)
	fmt.Printf("recovered:  %d records replayed at open\n", ws.RecoveryReplayedRecords)
	if st.Sealed {
		fmt.Println("SEALED: a WAL write failed; restart the process to recover")
	}
}

// stats prints the execution counters of the last successful query.
func (s *session) stats() {
	if s.last == nil {
		fmt.Println("no query executed yet")
		return
	}
	st := s.last.Stats
	fmt.Printf("elapsed:        %s\n", s.last.Elapsed.Round(time.Microsecond))
	fmt.Printf("comparisons:    %d\n", st.Comparisons)
	fmt.Printf("tuples out:     %d\n", st.TuplesOut)
	fmt.Printf("peak resident:  %d tuples\n", st.PeakTuples)
	fmt.Printf("subquery evals: %d\n", st.SubqueryEvals)
	fmt.Printf("operator evals: %d\n", st.OpEvals)
	fmt.Printf("hash joins:     %d   nl joins: %d   sorted groups: %d\n",
		st.HashJoins, st.NLJoins, st.SortedGroups)
}

// repl is the read loop of both shells: a line that opens with a
// backslash is a metacommand (command returns false to quit), anything
// else accumulates, under a continuation prompt, until a line ends in
// ";" and the statement runs.
func repl(prompt func() string, command func(line string) bool, run func(sql string)) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	show := func() {
		if buf.Len() == 0 {
			fmt.Printf("disqo(%s)> ", prompt())
		} else {
			fmt.Print("      ...> ")
		}
	}
	show()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !command(trimmed) {
				return
			}
			show()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sql := buf.String()
			buf.Reset()
			run(sql)
		}
		show()
	}
}

// command handles backslash metacommands; returns false to quit.
func (s *session) command(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\tables":
		fmt.Println(strings.Join(s.db.Tables(), "\n"))
		for _, v := range s.db.Views() {
			fmt.Printf("%s (view)\n", v)
		}
	case "\\strategy":
		if len(fields) != 2 {
			fmt.Printf("current strategy: %s\n", s.strategy)
			break
		}
		st, ok := disqo.ParseStrategy(fields[1])
		if !ok {
			fmt.Printf("bad strategy %q (want %s)\n", fields[1], strategyNames)
			break
		}
		s.strategy = st
		fmt.Printf("strategy set to %s\n", s.strategy)
	case "\\set":
		if len(fields) != 3 || fields[1] != "nulls" {
			fmt.Printf("usage: \\set nulls 2vl|3vl (current: %s)\n", s.nulls)
			break
		}
		m, ok := disqo.ParseNullMode(fields[2])
		if !ok {
			fmt.Printf("bad mode %q (want 2vl or 3vl)\n", fields[2])
			break
		}
		s.nulls = m
		fmt.Printf("nulls set to %s\n", s.nulls)
	case "\\explain":
		rest := strings.TrimPrefix(line, "\\explain ")
		// `\explain analyze <sql>` is EXPLAIN ANALYZE: execute and
		// annotate the physical plan with actual counters.
		if len(fields) > 1 && strings.EqualFold(fields[1], "analyze") {
			s.analyze(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[1])))
			break
		}
		s.explain(rest)
	case "\\analyze":
		s.analyze(strings.TrimPrefix(line, "\\analyze "))
	case "\\stats":
		s.stats()
	case "\\cache":
		s.cacheReport()
	case "\\top":
		n := 10
		if len(fields) == 2 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				fmt.Printf("usage: \\top [n]\n")
				break
			}
			n = v
		}
		s.top(n)
	case "\\slow":
		s.slow()
	case "\\checkpoint":
		if err := s.db.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			break
		}
		fmt.Println("checkpoint written, WAL truncated")
	case "\\wal":
		s.wal()
	case "\\help":
		fmt.Println("\\explain <sql>           show plans and rewrites\n\\explain analyze <sql>   execute and annotate the physical plan\n\\analyze <sql>           same as \\explain analyze\n\\stats                   show the last query's execution counters\n\\cache                   show plan/result cache counters\n\\top [n]                 top statements by total wall time (default 10)\n\\slow                    dump the slow-query ring (arm with -slow-after)\n\\checkpoint              snapshot the catalog and truncate the WAL (-data)\n\\wal                     show write-ahead log counters (-data)\n\\strategy <s>            switch strategy\n\\set nulls 2vl|3vl       switch null semantics\n\\tables                  list tables\n\\q                       quit")
	default:
		fmt.Printf("unknown command %s (try \\help)\n", fields[0])
	}
	return true
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "disqo: %v\n", err)
	os.Exit(1)
}
