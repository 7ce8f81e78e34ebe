package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"disqo"
)

// connectMode is the -connect shell: the same surface, but every
// statement goes over the wire to a disqod server via disqo.Client. The
// client reconnects transparently on read paths, so a server restart
// mid-session costs one retry, not the shell. It dials addr, applies the
// command line's settings to the session and runs either a one-shot
// statement or the remote REPL.
func connectMode(addr, execSQL string, timeout time.Duration, settings map[string]string) {
	c, err := disqo.Dial(addr, disqo.WithClientRequestTimeout(timeout))
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	for name, value := range settings {
		if err := c.Set(name, value); err != nil {
			fatal(err)
		}
	}
	if st, err := c.Ping(nil); err == nil {
		fmt.Fprintf(os.Stderr, "connected to %s: %d sessions\n", addr, st.Sessions)
	}
	run := func(sql string) { runStatement(sql, c.Exec, c.QueryContext) }
	if execSQL != "" {
		run(execSQL)
		return
	}
	repl(func() string { return addr }, c.Set,
		func(line string, fields []string) { remoteCommand(c, line, fields) }, run)
}

func ping(c *disqo.Client) {
	st, err := c.Ping(nil)
	if err != nil {
		reportError(err)
		return
	}
	fmt.Printf("sessions:  %d (%d conns)\n", st.Sessions, st.Conns)
	if st.Draining {
		fmt.Println("draining:  yes — finish up and reconnect elsewhere")
	}
}

// remoteCommand handles the remote shell's own metacommands.
func remoteCommand(c *disqo.Client, line string, fields []string) {
	switch fields[0] {
	case "\\ping":
		ping(c)
	case "\\timeout":
		if len(fields) != 2 {
			fmt.Println("usage: \\timeout <duration|0>")
			break
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			fmt.Printf("bad duration %q\n", fields[1])
			break
		}
		c.SetTimeout(d)
		fmt.Printf("request timeout set to %s\n", d)
	case "\\prepare":
		if len(fields) < 3 {
			fmt.Println("usage: \\prepare <name> <sql>")
			break
		}
		sql := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, fields[0]), " "+fields[1]))
		if err := c.Prepare(fields[1], sql); err != nil {
			reportError(err)
			break
		}
		fmt.Printf("prepared %s\n", fields[1])
	case "\\run":
		if len(fields) != 2 {
			fmt.Println("usage: \\run <name>")
			break
		}
		runQuery(func(ctx context.Context) (*disqo.Result, error) { return c.QueryPrepared(ctx, fields[1]) })
	case "\\help":
		fmt.Println("\\ping                    drain state and session counts\n\\set [<name> <value>]    set a session setting, or list the settings\n\\timeout <d>             set the default request timeout (0 clears)\n\\prepare <name> <sql>    register a prepared statement\n\\run <name>              execute a prepared statement\n\\q                       quit")
	default:
		fmt.Printf("unknown command %s in remote mode (try \\help)\n", fields[0])
	}
}
