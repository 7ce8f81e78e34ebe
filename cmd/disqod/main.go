// Command disqod serves a disqo database over TCP using the
// newline-delimited JSON protocol in internal/wire.
//
// Writer mode (the default) opens the database — durably when -data is
// set — and serves reads and writes. With -data, replicas can connect
// and stream the WAL.
//
// Replica mode (-replica-of addr) opens a volatile database, follows
// the writer's replication stream (snapshot bootstrap plus WAL tail),
// and serves reads only; writes fail with a read_only error. The
// replica keeps serving — at bounded staleness — while the writer is
// down, and reconnects when it returns.
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
		replicaOf    = flag.String("replica-of", "", "writer address to follow; serves reads only")
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

	if *dataDir != "" && *replicaOf != "" {
		log.Fatal("-data and -replica-of are mutually exclusive: a replica's state comes from the writer's stream")
	}

	role := server.RoleWriter
	if *replicaOf != "" {
		role = server.RoleReplica
	}

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

	cfg := server.Config{
		DB:           db,
		Role:         role,
		DataDir:      *dataDir,
		MaxConns:     *maxConns,
		IdleTimeout:  *idleTimeout,
		FrameTimeout: *frameTimeout,
		WriteTimeout: *writeTimeout,
		MaxFrame:     *maxFrame,
		Logf:         log.Printf,
	}

	var rep *server.Replica
	if role == server.RoleReplica {
		rep, err = server.NewReplica(server.ReplicaConfig{
			DB:     db,
			Writer: *replicaOf,
			Logf:   log.Printf,
		})
		if err != nil {
			log.Fatalf("replica: %v", err)
		}
		cfg.Staleness = rep.Staleness
	}

	srv, err = server.New(cfg)
	if err != nil {
		log.Fatalf("server: %v", err)
	}

	repDone := make(chan struct{})
	if rep != nil {
		go func() {
			defer close(repDone)
			if err := rep.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("replication stopped: %v", err)
			}
		}()
	} else {
		close(repDone)
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
	<-repDone
	if err := db.Close(); err != nil {
		log.Printf("close: %v", err)
		os.Exit(1)
	}
	log.Print("bye")
}
