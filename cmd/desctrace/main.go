// Command desctrace inspects and captures the synthetic workloads: it
// prints a benchmark's access-stream characteristics and the chunk-value
// statistics that drive the paper's Figures 12 and 13, dumps trace
// prefixes for external tools, and records binary traces that
// `desctrace -replay` (or any cpusim.RunWith caller) can feed back through
// the simulator cycle for cycle.
//
// Usage:
//
//	desctrace [-bench CG] [-n 20]             # dump a textual prefix
//	desctrace -stats [-blocks 1000]           # value statistics table
//	desctrace -record t.trc [-refs 20000]     # capture a binary trace
//	desctrace -replay t.trc [-instr 20000]    # simulate from a trace
//
// -replay takes the workload seed from the trace header; -seed applies
// only to the other modes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"desc/internal/exp"
	"desc/internal/stats"
	"desc/internal/trace"
	"desc/internal/workload"
)

func main() {
	var (
		bench  = flag.String("bench", "Art", "benchmark name (or 'all' for the statistics table)")
		n      = flag.Int("n", 20, "trace entries to dump")
		doStat = flag.Bool("stats", false, "print value statistics instead of a trace")
		blocks = flag.Int("blocks", 1000, "blocks to sample for -stats")
		seed   = flag.Int64("seed", 1, "workload seed (-replay uses the trace header's seed instead)")
		record = flag.String("record", "", "capture a binary trace to this file")
		replay = flag.String("replay", "", "simulate from a recorded trace file")
		refs   = flag.Int("refs", 20_000, "references per context for -record")
		instr  = flag.Uint64("instr", 20_000, "instructions per context for -replay")
		scheme = flag.String("scheme", "desc-zero", "transfer scheme for -replay")
	)
	flag.Parse()

	if *replay != "" {
		replayTrace(*replay, *scheme, *instr)
		return
	}
	if *doStat || *bench == "all" {
		printStats(*blocks, *seed)
		return
	}
	if *record != "" {
		recordTrace(*bench, *record, *refs, *seed)
		return
	}

	prof, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "desctrace: unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	g := workload.NewGenerator(prof, *seed)
	s := g.Stream(0, 32)
	fmt.Printf("# %s (%s): first %d references of context 0\n", prof.Name, prof.Suite, *n)
	fmt.Println("# gap_instrs  op  address")
	for i := 0; i < *n; i++ {
		a := s.Next()
		op := "R"
		if a.Write {
			op = "W"
		}
		fmt.Printf("%10d   %s  %#012x\n", a.Gap, op, a.Addr)
	}
}

// recordTrace captures a 32-context trace of the benchmark.
func recordTrace(bench, path string, refs int, seed int64) {
	prof, ok := workload.ByName(bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "desctrace: unknown benchmark %q\n", bench)
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desctrace:", err)
		os.Exit(1)
	}
	defer f.Close()
	gen := workload.NewGenerator(prof, seed)
	h, err := trace.Capture(gen, seed, 32, refs, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desctrace:", err)
		os.Exit(1)
	}
	fmt.Printf("recorded %s: %d contexts x %d refs -> %s\n", h.Benchmark, h.Contexts, refs, path)
}

// replayTrace runs the simulator from a recorded trace. The block
// contents come from the generator the trace header names, at the header's
// seed.
func replayTrace(path, scheme string, instr uint64) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desctrace:", err)
		os.Exit(1)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desctrace:", err)
		os.Exit(1)
	}
	src, err := trace.NewReplaySource(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desctrace:", err)
		os.Exit(1)
	}
	gen, err := src.Generator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "desctrace:", err)
		os.Exit(1)
	}
	wires := 128
	if scheme == "binary" {
		wires = 64
	}
	res, err := exp.Simulate(context.Background(), exp.SystemSpec{Scheme: scheme, DataWires: wires}, gen, src, instr, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "desctrace:", err)
		os.Exit(1)
	}
	st := res.Sim.Hierarchy
	fmt.Printf("replayed %s (%s, %d contexts): %d cycles, %d refs, L2 %d hits / %d misses\n",
		path, src.Header().Benchmark, src.Header().Contexts,
		res.Cycles, res.Sim.MemRefs, st.L2Hits, st.L2Misses)
}

func printStats(blocks int, seed int64) {
	t := stats.NewTable("Workload value statistics",
		"Benchmark", "Zero chunks", "Prev-chunk matches", "Mean non-zero value")
	var zs, ms []float64
	for _, p := range workload.Parallel() {
		g := workload.NewGenerator(p, seed)
		z, m := g.MeasureValueStats(blocks)
		v := g.MeanChunkValue(blocks)
		zs, ms = append(zs, z), append(ms, m)
		t.AddRowValues(p.Name, z, m, v)
	}
	t.AddRowValues("Mean/Geomean", stats.Mean(zs), stats.GeoMean(ms), 0)
	if err := t.WriteMarkdown(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "desctrace:", err)
		os.Exit(1)
	}
}
