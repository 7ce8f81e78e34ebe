package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"disqo"
)

// remoteSession is the -connect REPL: the same shell surface, but every
// statement goes over the wire to a disqod server via disqo.Client. The
// client reconnects transparently on read paths, so a server restart
// mid-session costs one retry, not the shell.
type remoteSession struct {
	c    *disqo.Client
	addr string
	last *disqo.Result
}

// connectMode dials addr and runs either a one-shot statement or the
// remote REPL. Called from main when -connect is set.
func connectMode(addr, execSQL string, timeout time.Duration) {
	opts := []disqo.ClientOption{}
	if timeout > 0 {
		opts = append(opts, disqo.WithClientRequestTimeout(timeout))
	}
	c, err := disqo.Dial(addr, opts...)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	rs := &remoteSession{c: c, addr: addr}
	if st, err := c.Ping(nil); err == nil {
		extra := ""
		if st.Role == "replica" {
			extra = fmt.Sprintf(" (applied LSN %d, staleness %s)", st.AppliedLSN, st.Staleness.Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "connected to %s: %s, %d sessions%s\n", addr, st.Role, st.Sessions, extra)
	}
	if execSQL != "" {
		rs.run(execSQL)
		return
	}
	repl(func() string { return rs.addr }, rs.command, rs.run)
}

func (rs *remoteSession) run(sql string) {
	if !isQuery(sql) {
		n, err := rs.c.Exec(sql)
		if err != nil {
			rs.report(err)
			return
		}
		fmt.Printf("ok (%d rows affected)\n", n)
		return
	}
	ctx, stop := queryContext()
	res, err := rs.c.QueryContext(ctx, sql)
	stop()
	if err != nil {
		rs.report(err)
		return
	}
	rs.last = res
	fmt.Print(res.String())
	fmt.Printf("elapsed: %s  comparisons: %d  subquery evals: %d\n",
		res.Elapsed.Round(time.Microsecond), res.Stats.Comparisons, res.Stats.SubqueryEvals)
}

func (rs *remoteSession) report(err error) {
	var se *disqo.ServerError
	switch {
	case errors.As(err, &se):
		fmt.Fprintf(os.Stderr, "server error [%s]: %s\n", se.Kind, se.Message)
	case errors.Is(err, disqo.ErrConnection):
		fmt.Fprintf(os.Stderr, "connection failure (retries exhausted): %v\n", err)
	default:
		reportError(err)
	}
}

func (rs *remoteSession) ping() {
	st, err := rs.c.Ping(nil)
	if err != nil {
		rs.report(err)
		return
	}
	fmt.Printf("role:      %s\n", st.Role)
	fmt.Printf("sessions:  %d (%d conns)\n", st.Sessions, st.Conns)
	if st.Draining {
		fmt.Println("draining:  yes — finish up and reconnect elsewhere")
	}
	if st.Role == "replica" {
		fmt.Printf("applied:   LSN %d\n", st.AppliedLSN)
		fmt.Printf("staleness: %s since last writer contact\n", st.Staleness.Round(time.Millisecond))
	}
}

// command handles the remote shell's backslash metacommands; returns
// false to quit.
func (rs *remoteSession) command(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\ping":
		rs.ping()
	case "\\strategy":
		if len(fields) != 2 {
			fmt.Println("usage: \\strategy <" + strategyNames + ">")
			break
		}
		st, ok := disqo.ParseStrategy(fields[1])
		if !ok {
			fmt.Printf("bad strategy %q (want %s)\n", fields[1], strategyNames)
			break
		}
		if err := rs.c.SetStrategy(st); err != nil {
			rs.report(err)
			break
		}
		fmt.Printf("session strategy set to %s\n", fields[1])
	case "\\set":
		if len(fields) != 3 || fields[1] != "nulls" {
			fmt.Println("usage: \\set nulls 2vl|3vl")
			break
		}
		m, ok := disqo.ParseNullMode(fields[2])
		if !ok {
			fmt.Printf("bad mode %q (want 2vl or 3vl)\n", fields[2])
			break
		}
		if err := rs.c.SetNullMode(m); err != nil {
			rs.report(err)
			break
		}
		fmt.Printf("session nulls set to %s\n", m)
	case "\\timeout":
		if len(fields) != 2 {
			fmt.Println("usage: \\timeout <duration|0>")
			break
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil && fields[1] == "0" {
			d, err = 0, nil
		}
		if err != nil {
			fmt.Printf("bad duration %q\n", fields[1])
			break
		}
		if err := rs.c.SetTimeout(d); err != nil {
			rs.report(err)
			break
		}
		fmt.Printf("session timeout set to %s\n", d)
	case "\\prepare":
		if len(fields) < 3 {
			fmt.Println("usage: \\prepare <name> <sql>")
			break
		}
		sql := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, fields[0]), " "+fields[1]))
		if err := rs.c.Prepare(fields[1], sql); err != nil {
			rs.report(err)
			break
		}
		fmt.Printf("prepared %s\n", fields[1])
	case "\\run":
		if len(fields) != 2 {
			fmt.Println("usage: \\run <name>")
			break
		}
		ctx, stop := queryContext()
		res, err := rs.c.QueryPrepared(ctx, fields[1])
		stop()
		if err != nil {
			rs.report(err)
			break
		}
		rs.last = res
		fmt.Print(res.String())
		fmt.Printf("elapsed: %s\n", res.Elapsed.Round(time.Microsecond))
	case "\\help":
		fmt.Println("\\ping                    server role, drain state, replica staleness\n\\strategy <s>            set the session's default strategy\n\\set nulls 2vl|3vl       set the session's default null semantics\n\\timeout <d>             set the session's default query timeout (0 clears)\n\\prepare <name> <sql>    register a prepared statement\n\\run <name>              execute a prepared statement\n\\q                       quit")
	default:
		fmt.Printf("unknown command %s in remote mode (try \\help)\n", fields[0])
	}
	return true
}
