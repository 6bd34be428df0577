// Command balogd is the standalone fast-BA log daemon: one OS process
// hosting k protocol nodes of a D-daemon cluster (population n = D·k),
// a durable WAL, a catch-up listener, the client/admin listener and a
// Prometheus /metrics endpoint. A cluster is D copies of this process
// with identical -cluster/-k/-seed/-epoch flags and distinct -node
// indices; daemon 0 leads (sequences client appends).
//
// Example — a 4-daemon local cluster (run each in its own shell):
//
//	balogd -node 0 -cluster 127.0.0.1:7000,127.0.0.1:7100,127.0.0.1:7200,127.0.0.1:7300 -store /tmp/balog/d0
//	balogd -node 1 -cluster 127.0.0.1:7000,127.0.0.1:7100,127.0.0.1:7200,127.0.0.1:7300 -store /tmp/balog/d1
//	balogd -node 2 -cluster 127.0.0.1:7000,127.0.0.1:7100,127.0.0.1:7200,127.0.0.1:7300 -store /tmp/balog/d2
//	balogd -node 3 -cluster 127.0.0.1:7000,127.0.0.1:7100,127.0.0.1:7200,127.0.0.1:7300 -store /tmp/balog/d3
//
// Each daemon owns the port block [port, port+k+2] of its base address:
// k node-mesh listeners, then catch-up, client/admin, and metrics HTTP.
// SIGTERM/SIGINT shut down gracefully: parked group-commit waiters
// flush, client connections drain their acks, then the WAL closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/fastba/fastba/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "balogd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("balogd", flag.ContinueOnError)
	var (
		node      = fs.Int("node", 0, "this daemon's index into -cluster")
		cluster   = fs.String("cluster", "", "comma-separated daemon base addresses (host:port), identical on every daemon")
		perDaemon = fs.Int("k", 2, "protocol nodes hosted per daemon (population = daemons × k, must be ≥ 8)")
		seed      = fs.Uint64("seed", 1, "cluster-wide master seed (identical on every daemon)")
		epoch     = fs.Uint64("epoch", 1, "configuration epoch (bump when the peer set changes)")
		storeDir  = fs.String("store", "", "WAL directory (required)")
		depth     = fs.Int("depth", 4, "concurrently open instances")
		batchMax  = fs.Int("batch", 16, "payloads folded into one instance")
		queueMax  = fs.Int("queue", 64, "per-client admission queue bound")
		syncWin   = fs.Duration("syncwindow", 2*time.Millisecond, "WAL group-commit window")
		timeout   = fs.Duration("timeout", 30*time.Second, "head-instance failure timeout (leader)")
		repropose = fs.Duration("repropose", 2*time.Second, "stalled-instance reproposal interval (leader)")
		quiet     = fs.Bool("quiet", false, "suppress the status ticker and lifecycle log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cluster == "" {
		return fmt.Errorf("-cluster is required")
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	addrs := strings.Split(*cluster, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	cfg := server.Config{
		ClusterAddrs:    addrs,
		Daemon:          *node,
		PerDaemon:       *perDaemon,
		Seed:            *seed,
		Epoch:           *epoch,
		StoreDir:        *storeDir,
		Depth:           *depth,
		BatchMax:        *batchMax,
		QueueMax:        *queueMax,
		SyncWindow:      *syncWin,
		InstanceTimeout: *timeout,
		ReproposeAfter:  *repropose,
	}
	logf := func(string, ...any) {}
	if !*quiet {
		logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
		cfg.Logf = logger.Printf
		logf = logger.Printf
	}

	d, err := server.New(cfg)
	if err != nil {
		return err
	}
	d.Start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		logf("balogd[%d]: %v: shutting down", *node, s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return d.Shutdown(ctx)
	case <-d.Failed():
		// The engine failed (instance timeout, store error): exit nonzero
		// so a supervisor restarts the process.
		return d.Err()
	}
}
