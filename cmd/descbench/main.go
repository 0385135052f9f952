// Command descbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index) and writes the results as
// markdown and CSV under a results directory.
//
// Usage:
//
//	descbench [-quick] [-only fig16,fig20] [-out results] [-instr N] [-seed N]
//	          [-jobs N] [-list-schemes] [-metrics report.json] [-pprof addr]
//	          [-cache-dir dir] [-shard i/n] [-merge dir1,dir2] [-cache-stats f]
//
// A full run simulates hundreds of system configurations and takes tens of
// minutes; -quick uses reduced sweeps and instruction budgets for a smoke
// pass in a few minutes. -jobs bounds the simulation worker pool (default:
// GOMAXPROCS); the selected experiments' demand sets are planned up front,
// deduplicated across experiments, and executed in parallel, so the wall
// clock shrinks with -jobs while the emitted results stay byte-identical.
// Progress lines on stderr carry an ETA extrapolated from completed runs.
//
// -cache-dir enables the persistent content-addressed result cache
// (internal/runcache, DESIGN.md §16): every simulated run is keyed by a
// digest of its canonicalized configuration and stored on disk, so a
// repeated or interrupted sweep recomputes only what is missing. A fully
// warm rerun performs zero simulator runs and emits a byte-identical
// results directory. -cache-stats writes the cache's hit/miss/write/
// corrupt counters as JSON at exit; a summary line also prints to stdout.
//
// -shard i/n (1-based, requires -cache-dir) executes only the i-th slice
// of the globally-ordered deduplicated demand plan and skips rendering:
// n share-nothing processes or machines given the same flags and
// distinct -shard values compute disjoint slices into their cache dirs.
// -merge imports the entries from those shard cache dirs into -cache-dir
// before running, so a final unsharded invocation renders the complete
// results from cache — byte-identical to a single-process run.
//
// -metrics writes a structured JSON run report at exit: per-run wall-clock
// timings, run-cache hit/dedup statistics, and per-scheme wire-activity
// totals from the instrumented simulator (see internal/metrics). -pprof
// serves net/http/pprof on the given address for profiling long sweeps.
// Neither flag perturbs results: telemetry is write-only observation.
// Interrupting a run (SIGINT/SIGTERM) cancels the in-flight simulations;
// with -cache-dir, completed runs are already on disk and the next
// invocation resumes from them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"desc/internal/exp"
	"desc/internal/link"
	"desc/internal/metrics"
	"desc/internal/progress"
	"desc/internal/runcache"
	"desc/internal/stats"
)

// parseShard parses the 1-based "i/n" shard flag into a 0-based index
// and a count.
func parseShard(s string) (index, count int, err error) {
	var i, n int
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("shard %q is not of the form i/n", s)
	}
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("shard %q out of range; want 1 <= i <= n", s)
	}
	return i - 1, n, nil
}

// writeCacheStats reports the store's counters: one greppable line on
// stdout always, plus a JSON file when path is non-empty (the CI
// artifact results-cached uploads).
func writeCacheStats(store *runcache.Store, path string) error {
	st := store.Stats()
	fmt.Println(st.String())
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		quick       = flag.Bool("quick", false, "reduced sweeps and instruction budgets")
		only        = flag.String("only", "", "comma-separated experiment ids (default: all)")
		out         = flag.String("out", "results", "output directory")
		instr       = flag.Uint64("instr", 0, "instructions per hardware context (0 = default)")
		seed        = flag.Int64("seed", 1, "workload seed")
		jobs        = flag.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		listSchemes = flag.Bool("list-schemes", false, "print the scheme registry (name, label, traits) and exit")
		metricsPath = flag.String("metrics", "", "write a JSON run report to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cacheDir    = flag.String("cache-dir", "", "persistent content-addressed run cache directory")
		shard       = flag.String("shard", "", "execute only slice i of n of the demand plan, as \"i/n\" (requires -cache-dir; skips rendering)")
		mergeDirs   = flag.String("merge", "", "comma-separated shard cache directories to import into -cache-dir before running")
		cacheStats  = flag.String("cache-stats", "", "write cache hit/miss/write/corrupt counters as JSON to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *listSchemes {
		if err := link.WriteRoster(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "descbench:", err)
			os.Exit(1)
		}
		return
	}
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "descbench: -jobs %d is negative; use 0 for the GOMAXPROCS default\n", *jobs)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		addr, err := metrics.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "descbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "descbench: pprof serving on http://%s/debug/pprof/\n", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	selected := exp.All()
	if *only != "" {
		var ids []string
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		var err error
		selected, err = exp.ByIDs(ids)
		if err != nil {
			fmt.Fprintf(os.Stderr, "descbench: %v (run descbench -list for valid ids)\n", err)
			os.Exit(1)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "descbench:", err)
		os.Exit(1)
	}

	start0 := time.Now()
	var reg *metrics.Registry
	if *metricsPath != "" {
		reg = metrics.NewRegistry()
	}

	shardIndex, shardCount := 0, 1
	if *shard != "" {
		var err error
		shardIndex, shardCount, err = parseShard(*shard)
		if err != nil {
			fmt.Fprintln(os.Stderr, "descbench:", err)
			os.Exit(1)
		}
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "descbench: -shard requires -cache-dir (a shard's results live only in its cache)")
			os.Exit(1)
		}
	}
	var store *runcache.Store
	if *cacheDir != "" {
		var err error
		store, err = runcache.Open(*cacheDir, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "descbench:", err)
			os.Exit(1)
		}
	}
	if *mergeDirs != "" {
		if store == nil {
			fmt.Fprintln(os.Stderr, "descbench: -merge requires -cache-dir (the destination cache)")
			os.Exit(1)
		}
		for _, dir := range strings.Split(*mergeDirs, ",") {
			if dir = strings.TrimSpace(dir); dir == "" {
				continue
			}
			imported, skipped, err := store.ImportDir(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "descbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "descbench: merged %d entries from %s (%d invalid skipped)\n", imported, dir, skipped)
		}
	}

	prog := progress.New(os.Stderr, "descbench")
	opt := exp.Options{Quick: *quick, InstrPerContext: *instr, Seed: *seed}
	r, err := exp.NewRunner(opt, exp.Jobs(*jobs), exp.WithObserver(prog), exp.WithMetrics(reg),
		exp.DiskCache(store), exp.Shard(shardIndex, shardCount))
	if err != nil {
		fmt.Fprintln(os.Stderr, "descbench:", err)
		os.Exit(1)
	}

	// Plan: gather every selected experiment's demand set and execute it
	// as one batch, so baselines shared across experiments simulate once
	// and the whole workload fans across the worker pool.
	var demands []exp.Demand
	for _, e := range selected {
		if e.Demands != nil {
			demands = append(demands, e.Demands(r.Options())...)
		}
	}
	if err := r.Execute(ctx, demands); err != nil {
		fmt.Fprintln(os.Stderr, "descbench:", err)
		os.Exit(1)
	}

	// writeReport emits the -metrics run report (no-op without the flag).
	writeReport := func() {
		if *metricsPath == "" {
			return
		}
		rep := metrics.Report{
			Tool: "descbench", Quick: *quick, Seed: *seed, Jobs: *jobs,
			WallMillis: time.Since(start0).Milliseconds(),
			Metrics:    reg.Snapshot(),
		}
		prog.Fill(&rep)
		if err := rep.WriteFile(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "descbench:", err)
			os.Exit(1)
		}
		fmt.Printf("run report written to %s\n", *metricsPath)
	}

	if shardCount > 1 {
		// Shard mode: this process's slice of the plan is on disk in
		// -cache-dir. Rendering needs every run, so it belongs to the
		// post-merge unsharded invocation, not to any single shard.
		if err := writeCacheStats(store, *cacheStats); err != nil {
			fmt.Fprintln(os.Stderr, "descbench:", err)
			os.Exit(1)
		}
		writeReport()
		fmt.Printf("shard %d/%d executed; results cached in %s\n", shardIndex+1, shardCount, *cacheDir)
		return
	}

	summary, err := os.Create(filepath.Join(*out, "README.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "descbench:", err)
		os.Exit(1)
	}
	defer summary.Close()
	fmt.Fprintf(summary, "# DESC reproduction results\n\nGenerated by descbench (quick=%v, seed=%d).\n\n", *quick, *seed)

	failed := 0
	for _, e := range selected {
		start := time.Now()
		tables, err := r.Run(ctx, e)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "descbench: interrupted")
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "descbench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		for i, t := range tables {
			if err := t.WriteMarkdown(summary); err != nil {
				fmt.Fprintln(os.Stderr, "descbench:", err)
				os.Exit(1)
			}
			// Two-column tables are the paper's bar charts; render
			// them as such alongside the numbers.
			if len(t.Columns) == 2 {
				if _, err := summary.WriteString(t.Chart(1)); err != nil {
					fmt.Fprintln(os.Stderr, "descbench:", err)
					os.Exit(1)
				}
			}
			name := e.ID
			if len(tables) > 1 {
				name = fmt.Sprintf("%s_%d", e.ID, i)
			}
			if err := writeCSV(filepath.Join(*out, name+".csv"), t); err != nil {
				fmt.Fprintln(os.Stderr, "descbench:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("%-8s %-70s %8s\n", e.ID, e.Title, time.Since(start).Round(time.Millisecond))
	}
	if store != nil {
		if err := writeCacheStats(store, *cacheStats); err != nil {
			fmt.Fprintln(os.Stderr, "descbench:", err)
			os.Exit(1)
		}
	}
	writeReport()
	if failed > 0 {
		os.Exit(1)
	}
	fmt.Printf("results written to %s\n", *out)
}

func writeCSV(path string, t *stats.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
