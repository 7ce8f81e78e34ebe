// Command disqod serves a disqo database over TCP using the
// newline-delimited JSON protocol in internal/wire.
//
// It opens the database — durably when -data is set — and serves reads
// and writes.
//
// SIGTERM or SIGINT drains gracefully: the listener closes, idle
// sessions get a typed closed error, in-flight requests finish (bounded
// by -drain-timeout), then the engine closes — flushing the WAL — and
// the process exits 0.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disqo"
	"disqo/internal/server"
)

func main() {
	var (
		listen       = flag.String("listen", ":4333", "address to serve the wire protocol on")
		dataDir      = flag.String("data", "", "durable data directory (WAL + checkpoints); empty = volatile")
		debugAddr    = flag.String("debug", "", "debug HTTP listener (/metrics, /statz, /debug/pprof); empty = off")
		maxConns     = flag.Int("max-conns", 256, "max concurrent client connections (<0 = unlimited)")
		maxConc      = flag.Int("max-concurrent", 0, "max concurrently executing queries (0 = 8×GOMAXPROCS)")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "reap sessions idle this long (<0 = never)")
		frameTimeout = flag.Duration("frame-timeout", 10*time.Second, "max time one request frame may take to arrive")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "max time one response write may take")
		maxFrame     = flag.Int("max-frame", 0, "max request frame bytes (0 = 4 MiB default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		syncEvery    = flag.Int("sync-every", 0, "fsync the WAL after every nth record (0/1 = every record)")
		syncInterval = flag.Duration("sync-interval", 0, "background WAL fsync interval (0 = off)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "auto-checkpoint after every n logged records (0 = manual only)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("disqod: ")

	// The metrics hook closes over srv before Open creates the DB the
	// server needs; it only fires on scrapes, by which time srv is set.
	var srv *server.Server
	opts := []disqo.OpenOption{
		disqo.WithDrainTimeout(*drainTimeout),
	}
	if *maxConc != 0 {
		opts = append(opts, disqo.WithMaxConcurrent(*maxConc))
	}
	if *dataDir != "" {
		opts = append(opts,
			disqo.WithDataDir(*dataDir),
			disqo.WithSyncEvery(*syncEvery),
			disqo.WithSyncInterval(*syncInterval),
			disqo.WithCheckpointEvery(*ckptEvery),
		)
	}
	if *debugAddr != "" {
		opts = append(opts,
			disqo.WithDebugAddr(*debugAddr),
			disqo.WithDebugMetrics(func() []byte {
				if srv == nil {
					return nil
				}
				return srv.MetricsText()
			}),
		)
	}

	db, err := disqo.Open(opts...)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	if *debugAddr != "" {
		if addr, err := db.DebugAddr(); err != nil {
			log.Printf("debug listener failed: %v", err)
		} else {
			log.Printf("debug http on %s", addr)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	srv, err = server.New(server.Config{
		DB:           db,
		MaxConns:     *maxConns,
		IdleTimeout:  *idleTimeout,
		FrameTimeout: *frameTimeout,
		WriteTimeout: *writeTimeout,
		MaxFrame:     *maxFrame,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("server: %v", err)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*listen) }()

	select {
	case err := <-serveErr:
		// Bind failure or a fatal accept error before any signal.
		db.Close()
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		return
	case <-ctx.Done():
	}

	log.Printf("signal received, draining (timeout %s)", *drainTimeout)
	stop() // a second signal kills the process the default way
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("drain: %v", err)
	}
	<-serveErr
	if err := db.Close(); err != nil {
		log.Printf("close: %v", err)
		os.Exit(1)
	}
	log.Print("bye")
}
