package desc

// One sub-benchmark per table/figure of the paper's evaluation, each
// running the corresponding experiment at reduced (Quick) scale on a fresh
// Runner. Regenerate the full-scale numbers with:
//
//	go run ./cmd/descbench
//
// Micro-benchmarks for the codec hot paths and the simulator follow.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/exp"
	"desc/internal/metrics"
	"desc/internal/runcache"
	"desc/internal/stats"
	"desc/internal/workload"
)

// benchOptions is the scale used by all figure benchmarks.
func benchOptions() exp.Options {
	return exp.Options{Quick: true, InstrPerContext: 5_000, Seed: 1}
}

// BenchmarkFigures runs every registered experiment (the paper's tables
// and figures, and the extensions) at reduced (Quick) scale, one
// sub-benchmark per experiment id. Each iteration builds a fresh Runner,
// so ns/op prices the experiment's own simulations and rendering rather
// than a warm run cache; sims/op counts the simulator runs behind it.
func BenchmarkFigures(b *testing.B) {
	for _, e := range exp.All() {
		b.Run(e.ID, func(b *testing.B) {
			reg := metrics.NewRegistry()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := exp.NewRunner(benchOptions(), exp.WithMetrics(reg))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Run(context.Background(), e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(reg.Counter("exp/runs_started").Value())/float64(b.N), "sims/op")
		})
	}
}

// BenchmarkRunnerExecute prices the persistent disk cache (DESIGN.md
// §16) around a small fixed demand plan: "cold" pays the simulations
// plus the cache writes; "warm-disk" builds a fresh Runner per iteration
// against an already-warm cache directory, so an iteration is pure plan
// + run-set read + decode; "warm-entries" removes the run set before
// each iteration, untimed, so it prices the per-entry reads and the set
// rewrite. The warm cases additionally pin the tentpole invariant that a
// fully warm Execute performs zero simulator runs.
func BenchmarkRunnerExecute(b *testing.B) {
	demands := []exp.Demand{
		{Spec: exp.BinaryBase(), Bench: "Art"},
		{Spec: exp.DESCZero(), Bench: "Art"},
		{Spec: exp.BinaryBase(), Bench: "CG"},
		{Spec: exp.DESCZero(), Bench: "CG"},
	}
	execute := func(b *testing.B, dir string, reg *metrics.Registry) {
		b.Helper()
		store, err := runcache.Open(dir, reg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := exp.NewRunner(benchOptions(), exp.DiskCache(store), exp.WithMetrics(reg))
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Execute(context.Background(), demands); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			execute(b, b.TempDir(), nil)
		}
	})

	warm := func(b *testing.B, dropSets bool) {
		dir := b.TempDir()
		execute(b, dir, nil) // warm the cache once, outside the timer
		reg := metrics.NewRegistry()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dropSets {
				b.StopTimer()
				if err := os.RemoveAll(filepath.Join(dir, "sets")); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			execute(b, dir, reg)
		}
		b.StopTimer()
		if runs := reg.Counter("exp/runs_started").Value(); runs != 0 {
			b.Fatalf("warm Execute performed %d simulator runs, want 0", runs)
		}
		if hits := reg.Counter("runcache/hits").Value(); hits != uint64(len(demands))*uint64(b.N) {
			b.Fatalf("warm Execute hit disk %d times, want %d", hits, len(demands)*b.N)
		}
		wantSetHits := uint64(b.N)
		if dropSets {
			wantSetHits = 0
		}
		if got := reg.Counter("runcache/set_hits").Value(); got != wantSetHits {
			b.Fatalf("warm Execute served %d run sets, want %d", got, wantSetHits)
		}
	}
	b.Run("warm-disk", func(b *testing.B) { warm(b, false) })
	b.Run("warm-entries", func(b *testing.B) { warm(b, true) })
}

// BenchmarkRunnerRun prices a warm rerun of the six sweep figures the way
// descbench renders them: each iteration builds a fresh Runner on a warm
// cache directory, executes the figures' union plan and then Runs each
// figure. renders/op counts every render of a figure, dry or real (a
// Demands call is one dry render); a Runner that holds its figures' runs
// renders each once. The runs are short (500 instructions per context):
// a warm iteration simulates nothing, so their length only sets the cost
// of warming the cache once.
func BenchmarkRunnerRun(b *testing.B) {
	opt := exp.Options{Quick: true, InstrPerContext: 500, Seed: 1}
	exps, err := exp.ByIDs([]string{"fig14", "fig15", "fig22", "fig25", "fig26", "fig27"})
	if err != nil {
		b.Fatal(err)
	}
	var plan []exp.Demand
	for _, e := range exps {
		plan = append(plan, e.Demands(opt.WithDefaults())...)
	}
	var renders int
	for i := range exps {
		run, demands := exps[i].Run, exps[i].Demands
		exps[i].Run = func(ctx context.Context, r *exp.Runner) ([]*stats.Table, error) {
			renders++
			return run(ctx, r)
		}
		exps[i].Demands = func(opt exp.Options) []exp.Demand {
			renders++
			return demands(opt)
		}
	}
	pass := func(b *testing.B, dir string, reg *metrics.Registry) {
		b.Helper()
		store, err := runcache.Open(dir, reg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := exp.NewRunner(opt, exp.DiskCache(store), exp.WithMetrics(reg))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if err := r.Execute(ctx, plan); err != nil {
			b.Fatal(err)
		}
		for _, e := range exps {
			if _, err := r.Run(ctx, e); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		pass(b, dir, nil) // warm the cache once, outside the timer
		reg := metrics.NewRegistry()
		renders = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(b, dir, reg)
		}
		b.StopTimer()
		if runs := reg.Counter("exp/runs_started").Value(); runs != 0 {
			b.Fatalf("warm pass performed %d simulator runs, want 0", runs)
		}
		b.ReportMetric(float64(renders)/float64(b.N), "renders/op")
	})
}

// --- Send micro-benchmarks: the per-block hot path of every scheme. ---
//
// Run with -benchmem (or `make bench-quick`, which CI records as a per-PR
// artifact): steady-state Send must stay at 0 allocs/op for every scheme —
// the allocation regression tests in internal/core and internal/baseline
// enforce the same invariant, and the ns/op trajectory here is the record
// of the word-parallel kernels' speedup.

func benchmarkScheme(b *testing.B, scheme string, wires int) {
	b.Helper()
	benchmarkSchemeGeom(b, scheme, wires, 4, 8)
}

func benchmarkSchemeGeom(b *testing.B, scheme string, wires, chunkBits, segBits int) {
	b.Helper()
	l, err := NewLink(LinkSpec{
		Scheme: scheme, BlockBits: 512, DataWires: wires,
		ChunkBits: chunkBits, SegmentBits: segBits,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Parallel()[0], 1)
	blocks := make([][]byte, 64)
	for i := range blocks {
		blocks[i] = gen.BlockData(uint64(i) * 4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var flips uint64
	for i := 0; i < b.N; i++ {
		flips += l.Send(blocks[i%len(blocks)]).Flips.Total()
	}
	b.ReportMetric(float64(flips)/float64(b.N), "flips/block")
}

func BenchmarkSendBinary(b *testing.B)       { benchmarkScheme(b, "binary", 64) }
func BenchmarkSendBusInvert(b *testing.B)    { benchmarkScheme(b, "bic", 64) }
func BenchmarkSendBICZeroSkip(b *testing.B)  { benchmarkScheme(b, "bic-zs", 64) }
func BenchmarkSendBICEncodedZS(b *testing.B) { benchmarkScheme(b, "bic-ezs", 64) }
func BenchmarkSendDZC(b *testing.B)          { benchmarkScheme(b, "dzc", 64) }
func BenchmarkSendDESCBasic(b *testing.B)    { benchmarkScheme(b, "desc-basic", 128) }
func BenchmarkSendDESCZero(b *testing.B)     { benchmarkScheme(b, "desc-zero", 128) }
func BenchmarkSendDESCLast(b *testing.B)     { benchmarkScheme(b, "desc-last", 128) }
func BenchmarkSendDESCAdaptive(b *testing.B) { benchmarkScheme(b, "desc-adaptive", 128) }
func BenchmarkSendFPF(b *testing.B)          { benchmarkScheme(b, "fpf", 64) }
func BenchmarkSendLWC(b *testing.B)          { benchmarkScheme(b, "lwc", 64) }

// BenchmarkSendDESCZeroWires24 pins a ragged wire count: 24 nibble lanes
// per round, so each round's second word is half empty.
func BenchmarkSendDESCZeroWires24(b *testing.B) { benchmarkScheme(b, "desc-zero", 24) }

// The chunk sweeps' (Figures 22 and 26) narrow chunks: 2-bit chunks
// spread into nibble lanes at the two wire counts the quick sweeps run.
func BenchmarkSendDESCZeroChunk2(b *testing.B) { benchmarkSchemeGeom(b, "desc-zero", 128, 2, 8) }
func BenchmarkSendDESCZeroChunk2Wires64(b *testing.B) {
	benchmarkSchemeGeom(b, "desc-zero", 64, 2, 8)
}

// The byte-lane variants pin the 8-bit-chunk lanes, the other lane width
// of the DESC kernel.
func BenchmarkSendDESCZeroBytes(b *testing.B) { benchmarkSchemeGeom(b, "desc-zero", 64, 8, 8) }
func BenchmarkSendDESCAdaptiveBytes(b *testing.B) {
	benchmarkSchemeGeom(b, "desc-adaptive", 64, 8, 8)
}

// The segment sweep's (Figure 15) other widths for the lane kernels of
// the bus-invert family and dzc: 16-bit lanes, and 4-bit lanes with 16
// mode decisions per word.
func BenchmarkSendDZCSeg16(b *testing.B)       { benchmarkSchemeGeom(b, "dzc", 64, 4, 16) }
func BenchmarkSendBusInvertSeg16(b *testing.B) { benchmarkSchemeGeom(b, "bic", 64, 4, 16) }
func BenchmarkSendBusInvertSeg4(b *testing.B)  { benchmarkSchemeGeom(b, "bic", 64, 4, 4) }
func BenchmarkSendBICZeroSkipSeg4(b *testing.B) {
	benchmarkSchemeGeom(b, "bic-zs", 64, 4, 4)
}
func BenchmarkSendDZCSeg4(b *testing.B) { benchmarkSchemeGeom(b, "dzc", 64, 4, 4) }

// The segment-width sweep's (Figure 15) literature-codec widths, each
// for fpf and lwc (8 bits is BenchmarkSendFPF/LWC): byte-table widths
// (4), segment-table widths (16), byte-group widths (32, and 64 with one
// segment per beat), and the 16-segment base-3 mode field.
func BenchmarkSendFPFSeg4(b *testing.B)          { benchmarkSchemeGeom(b, "fpf", 64, 4, 4) }
func BenchmarkSendFPFSeg16(b *testing.B)         { benchmarkSchemeGeom(b, "fpf", 64, 4, 16) }
func BenchmarkSendFPFSeg32(b *testing.B)         { benchmarkSchemeGeom(b, "fpf", 64, 4, 32) }
func BenchmarkSendFPFSeg64(b *testing.B)         { benchmarkSchemeGeom(b, "fpf", 64, 4, 64) }
func BenchmarkSendLWCSeg4(b *testing.B)          { benchmarkSchemeGeom(b, "lwc", 64, 4, 4) }
func BenchmarkSendLWCSeg16(b *testing.B)         { benchmarkSchemeGeom(b, "lwc", 64, 4, 16) }
func BenchmarkSendLWCSeg32(b *testing.B)         { benchmarkSchemeGeom(b, "lwc", 64, 4, 32) }
func BenchmarkSendLWCSeg64(b *testing.B)         { benchmarkSchemeGeom(b, "lwc", 64, 4, 64) }
func BenchmarkSendBICEncodedZSSeg4(b *testing.B) { benchmarkSchemeGeom(b, "bic-ezs", 64, 4, 4) }

// benchmarkRecv measures the receiver-side block reassembly (PackChunks +
// StoreWords after a full block of chunks has arrived).
func benchmarkRecv(b *testing.B, chunkBits int) {
	b.Helper()
	ch, err := NewChannel(512, chunkBits, 64, SkipZero, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Parallel()[0], 1)
	ch.Send(gen.BlockData(4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.RX.Block()
	}
}

func BenchmarkRecvBlock(b *testing.B)      { benchmarkRecv(b, 4) }
func BenchmarkRecvBlockBytes(b *testing.B) { benchmarkRecv(b, 8) }

// BenchmarkCycleAccurateChannel measures the full cycle-level TX/RX path.
func BenchmarkCycleAccurateChannel(b *testing.B) {
	ch, err := NewChannel(512, 4, 128, SkipZero, 2)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Parallel()[0], 1)
	block := gen.BlockData(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Send(block)
	}
}

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per second on the design point.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Simulate(SystemConfig{
			Scheme: "desc-zero", DataWires: 128, InstrPerContext: 2_000,
			Seed: int64(i + 1),
		}, "Radix")
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughputSameSeed runs a design-space sweep's scheme
// mix over the sweep's two benchmarks at one seed, the shape of every
// figure sweep: runs that differ only in the bus scheme share their
// generated blocks and recycle their L2 line tables.
// BenchmarkSimulatorThroughput draws a new seed per iteration and so
// stays the cold-path measure.
func BenchmarkSimulatorThroughputSameSeed(b *testing.B) {
	schemes := []SystemConfig{
		{Scheme: "binary", DataWires: 64},
		{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4},
		{Scheme: "bic", DataWires: 64, SegmentBits: 8},
		{Scheme: "fpf", DataWires: 64, SegmentBits: 16},
		{Scheme: "lwc", DataWires: 64, SegmentBits: 16},
	}
	benches := []string{"Art", "CG"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bench := range benches {
			for _, cfg := range schemes {
				cfg.InstrPerContext, cfg.Seed = 2_000, 1
				if _, err := Simulate(cfg, bench); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(schemes)*len(benches)), "sims/op")
}

// BenchmarkSimulatorSetup prices the per-run construction a sweep pays
// before simulating anything: the workload generator (its spill
// calibration memo already warm, as in every run of a sweep after the
// first per benchmark) and the cache hierarchy at the design point.
func BenchmarkSimulatorSetup(b *testing.B) {
	prof, _ := workload.ByName("Radix")
	cfg := cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}}
	workload.NewGenerator(prof, 1) // warm the calibration memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cachesim.New(cfg, workload.NewGenerator(prof, 1)); err != nil {
			b.Fatal(err)
		}
	}
}
