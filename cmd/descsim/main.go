// Command descsim runs one system configuration on one benchmark and
// prints an energy/performance report — the quickest way to poke at the
// simulator.
//
// Usage:
//
//	descsim [-scheme desc-zero] [-bench Art] [-wires 128] [-banks 8]
//	        [-capacity 8388608] [-nuca] [-ecc 0] [-ooo] [-instr 60000]
//	        [-compare] [-list-schemes] [-metrics report.json] [-pprof addr]
//
// With -compare, the same benchmark also runs on the conventional binary
// baseline and the report shows normalized deltas. -metrics writes a JSON
// run report (wall-clock timings plus the simulator's internal activity
// counters); -pprof serves net/http/pprof. Neither perturbs results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"desc"
	"desc/internal/link"
	"desc/internal/metrics"
)

func main() {
	var (
		scheme   = flag.String("scheme", "desc-zero", "transfer scheme (see -schemes)")
		bench    = flag.String("bench", "Art", "benchmark name (see -benches)")
		wires    = flag.Int("wires", 128, "H-tree data wires")
		chunk    = flag.Int("chunk", 4, "DESC chunk bits")
		seg      = flag.Int("seg", 8, "BIC/DZC segment bits")
		banks    = flag.Int("banks", 8, "L2 banks")
		capacity = flag.Int("capacity", 8<<20, "L2 capacity in bytes")
		nuca     = flag.Bool("nuca", false, "S-NUCA-1 organization")
		eccSeg   = flag.Int("ecc", 0, "SECDED segment bits (0 = off)")
		ooo      = flag.Bool("ooo", false, "out-of-order single-core processor")
		instr    = flag.Uint64("instr", 60_000, "instructions per hardware context")
		seed     = flag.Int64("seed", 1, "workload seed")
		compare  = flag.Bool("compare", false, "also run the binary baseline and normalize")
		schemes  = flag.Bool("schemes", false, "list scheme names and exit")
		listFull = flag.Bool("list-schemes", false, "print the scheme registry (name, label, traits) and exit")
		benches  = flag.Bool("benches", false, "list benchmarks and exit")

		metricsPath = flag.String("metrics", "", "write a JSON run report to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := metrics.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "descsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "descsim: pprof serving on http://%s/debug/pprof/\n", addr)
	}

	if *schemes {
		for _, s := range desc.Schemes() {
			fmt.Println(s)
		}
		return
	}
	if *listFull {
		if err := link.WriteRoster(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "descsim:", err)
			os.Exit(1)
		}
		return
	}
	if *benches {
		fmt.Println("parallel:", desc.Benchmarks())
		fmt.Println("spec:    ", desc.SPECBenchmarks())
		return
	}

	cfg := desc.SystemConfig{
		Scheme:          *scheme,
		DataWires:       *wires,
		ChunkBits:       *chunk,
		SegmentBits:     *seg,
		Banks:           *banks,
		CapacityBytes:   *capacity,
		NUCA:            *nuca,
		ECCSegmentBits:  *eccSeg,
		InstrPerContext: *instr,
		Seed:            *seed,
	}
	if *ooo {
		cfg.Kind = desc.OutOfOrder
	}
	var reg *desc.MetricsRegistry
	if *metricsPath != "" {
		reg = desc.NewMetricsRegistry()
		cfg.Metrics = reg
	}
	start := time.Now()
	var runs []metrics.RunTiming

	res, err := desc.Simulate(cfg, *bench)
	runs = append(runs, timing(cfg.Scheme, *bench, start, err))
	if err != nil {
		fmt.Fprintln(os.Stderr, "descsim:", err)
		os.Exit(1)
	}
	report(res)

	if *compare {
		base := cfg
		base.Scheme = "binary"
		base.DataWires = 64
		refStart := time.Now()
		ref, err := desc.Simulate(base, *bench)
		runs = append(runs, timing(base.Scheme, *bench, refStart, err))
		if err != nil {
			fmt.Fprintln(os.Stderr, "descsim:", err)
			os.Exit(1)
		}
		fmt.Printf("\nversus binary baseline (64-wire):\n")
		fmt.Printf("  execution time   %.4gx\n", float64(res.Cycles)/float64(ref.Cycles))
		fmt.Printf("  L2 energy        %.4gx  (improvement %.3gx)\n",
			res.L2EnergyJ/ref.L2EnergyJ, ref.L2EnergyJ/res.L2EnergyJ)
		fmt.Printf("  processor energy %.4gx\n", res.ProcessorEnergyJ/ref.ProcessorEnergyJ)
	}
	if *metricsPath != "" {
		rep := metrics.Report{
			Tool: "descsim", Seed: *seed,
			Planned: len(runs), Completed: len(runs),
			WallMillis: time.Since(start).Milliseconds(),
			Runs:       runs,
			Metrics:    reg.Snapshot(),
		}
		if err := rep.WriteFile(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "descsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "descsim: run report written to %s\n", *metricsPath)
	}
}

// timing captures one Simulate call's wall-clock outcome for the report.
func timing(scheme, bench string, start time.Time, err error) metrics.RunTiming {
	t := metrics.RunTiming{
		Spec: scheme, Bench: bench,
		Millis: time.Since(start).Milliseconds(), Status: metrics.StatusOK,
	}
	if err != nil {
		t.Status, t.Error = metrics.StatusFailed, err.Error()
	}
	return t
}

func report(r desc.SimResult) {
	fmt.Printf("benchmark         %s\n", r.Benchmark)
	fmt.Printf("cycles            %d\n", r.Cycles)
	fmt.Printf("instructions      %d\n", r.Instructions)
	fmt.Printf("memory refs       %d\n", r.MemRefs)
	st := r.Stats
	fmt.Printf("L1 hit rate       %.2f%%\n", 100*float64(st.L1Hits)/float64(st.L1Hits+st.L1Misses))
	fmt.Printf("L2 hits/misses    %d / %d\n", st.L2Hits, st.L2Misses)
	fmt.Printf("avg L2 hit delay  %.1f cycles\n", r.AvgL2HitCycles)
	fmt.Printf("L2 energy         %.4g J (H-tree %.1f%%, arrays %.1f%%, static %.1f%%)\n",
		r.L2EnergyJ, 100*r.HTreeJ/r.L2EnergyJ, 100*r.ArrayJ/r.L2EnergyJ, 100*r.StaticJ/r.L2EnergyJ)
	fmt.Printf("processor energy  %.4g J (L2 share %.1f%%)\n",
		r.ProcessorEnergyJ, 100*r.L2EnergyJ/r.ProcessorEnergyJ)
	fmt.Printf("DRAM energy       %.4g J\n", r.DRAMEnergyJ)
	fmt.Printf("L2 area           %.2f mm^2\n", r.L2AreaMM2)
}
