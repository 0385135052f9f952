// Command descserve is the long-running encode/decode and experiment
// daemon (DESIGN.md §15): the full scheme registry and experiment suite
// behind an HTTP API instead of a batch CLI.
//
// Usage:
//
//	descserve [-addr :8437] [-addr-file path] [-max-body bytes]
//	          [-deadline 30s] [-exp-deadline 15m] [-jobs N] [-drain 10s]
//	          [-cache-dir dir]
//
// Data plane:
//
//	POST /v1/encode   push blocks through a scheme, get transfer costs
//	POST /v1/decode   same, plus the receiver-recovered payload
//
// Both accept a JSON envelope ({"scheme": ..., "data": base64}) or a raw
// application/octet-stream body with query parameters (scheme=,
// block_bits=, ...) — the fast path for bulk traffic.
//
// Control plane:
//
//	POST /v1/experiments   run a registered experiment, streaming NDJSON
//	                       progress and the rendered result tables
//	GET  /v1/experiments   list experiment ids
//	GET  /v1/schemes       list the scheme registry
//	GET  /metrics          live instrument snapshot (JSON)
//	GET  /debug/pprof/     profiling mux
//	GET  /healthz          liveness probe
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes and
// in-flight requests get -drain to finish. -addr-file writes the bound
// address (useful with -addr 127.0.0.1:0 in scripts); -jobs bounds each
// experiment runner's worker pool. -cache-dir points every experiment
// runner at a persistent content-addressed result cache (shared with the
// descbench CLI), so client-requested runs survive restarts;
// the cache's hit/miss/write counters appear on /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"desc/internal/metrics"
	"desc/internal/runcache"
	"desc/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8437", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size limit in bytes")
	deadline := flag.Duration("deadline", serve.DefaultRequestDeadline, "data-plane per-request deadline")
	expDeadline := flag.Duration("exp-deadline", serve.DefaultExperimentDeadline, "experiment per-request deadline")
	jobs := flag.Int("jobs", 0, "experiment worker pool bound (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain window on shutdown (0 = wait indefinitely)")
	cacheDir := flag.String("cache-dir", "", "persistent content-addressed run cache directory (shared with descbench)")
	flag.Parse()

	if err := run(*addr, *addrFile, *maxBody, *deadline, *expDeadline, *jobs, *drain, *cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "descserve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, addrFile string, maxBody int64, deadline, expDeadline time.Duration, jobs int, drain time.Duration, cacheDir string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "descserve: listening on %s\n", ln.Addr())
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	cfg := serve.Config{
		MaxBodyBytes:       maxBody,
		RequestDeadline:    deadline,
		ExperimentDeadline: expDeadline,
		Jobs:               jobs,
		Metrics:            metrics.NewRegistry(),
	}
	if cacheDir != "" {
		store, err := runcache.Open(cacheDir, cfg.Metrics)
		if err != nil {
			ln.Close()
			return err
		}
		cfg.RunCache = store
		fmt.Fprintf(os.Stderr, "descserve: run cache at %s\n", store.Dir())
	}
	s := serve.New(cfg)
	err = s.Serve(ctx, ln, drain)
	if errors.Is(err, http.ErrServerClosed) || err == nil {
		fmt.Fprintln(os.Stderr, "descserve: drained, shutting down")
		return nil
	}
	return err
}
