package desc

// One benchmark per table/figure of the paper's evaluation, each running
// the corresponding experiment at reduced (Quick) scale and reporting its
// headline metric alongside the usual ns/op. Regenerate the full-scale
// numbers with:
//
//	go run ./cmd/descbench
//
// Experiment results are memoized per process, so b.N iterations beyond
// the first measure the (cheap) table rendering; the first iteration pays
// for the simulations. Micro-benchmarks for the codec hot paths follow at
// the end.

import (
	"context"
	"strconv"
	"strings"
	"sync"
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

// benchRunner is shared by every figure benchmark, so iterations beyond
// the first measure table rendering against a warm run cache.
var benchRunner = sync.OnceValue(func() *exp.Runner {
	r, err := exp.NewRunner(benchOptions())
	if err != nil {
		panic(err)
	}
	return r
})

// runFigure executes one experiment per iteration and returns the final
// tables.
func runFigure(b *testing.B, id string) []*stats.Table {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var tables []*stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = benchRunner().Run(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// metric extracts a numeric cell from a labeled row.
func metric(b *testing.B, t *stats.Table, rowLabel string, col int) float64 {
	b.Helper()
	for i := 0; i < t.NumRows(); i++ {
		if t.Row(i)[0] == rowLabel {
			v, err := strconv.ParseFloat(strings.TrimSuffix(t.Row(i)[col], "x"), 64)
			if err != nil {
				b.Fatalf("row %q col %d: %v", rowLabel, col, err)
			}
			return v
		}
	}
	b.Fatalf("row %q not found", rowLabel)
	return 0
}

// BenchmarkRunnerExecute prices the persistent disk cache (DESIGN.md
// §16) around a small fixed demand plan: "cold" pays the simulations
// plus the cache writes; "warm-disk" builds a fresh Runner per iteration
// against an already-warm cache directory, so an iteration is pure plan
// + disk-read + decode. The warm case additionally pins the tentpole
// invariant that a fully warm Execute performs zero simulator runs.
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

	b.Run("warm-disk", func(b *testing.B) {
		dir := b.TempDir()
		execute(b, dir, nil) // warm the cache once, outside the timer
		reg := metrics.NewRegistry()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			execute(b, dir, reg)
		}
		b.StopTimer()
		if runs := reg.Counter("exp/runs_started").Value(); runs != 0 {
			b.Fatalf("warm-disk Execute performed %d simulator runs, want 0", runs)
		}
		if hits := reg.Counter("runcache/hits").Value(); hits != uint64(len(demands))*uint64(b.N) {
			b.Fatalf("warm-disk Execute hit disk %d times, want %d", hits, len(demands)*b.N)
		}
	})
}

func BenchmarkFig01_L2ShareOfProcessorEnergy(b *testing.B) {
	t := runFigure(b, "fig01")[0]
	b.ReportMetric(metric(b, t, "Geomean", 1), "L2/proc")
}

func BenchmarkFig02_L2EnergyBreakdown(b *testing.B) {
	t := runFigure(b, "fig02")[0]
	b.ReportMetric(metric(b, t, "Average", 3), "htree_frac")
}

func BenchmarkFig03_ByteExample(b *testing.B) {
	t := runFigure(b, "fig03")[0]
	b.ReportMetric(metric(b, t, "DESC", 3), "desc_flips")
}

func BenchmarkFig05_ChunkTiming(b *testing.B) {
	t := runFigure(b, "fig05")[0]
	b.ReportMetric(metric(b, t, "total (2 then 1)", 1), "cycles")
}

func BenchmarkFig10_TimeWindows(b *testing.B) {
	t := runFigure(b, "fig10")[0]
	b.ReportMetric(metric(b, t, "zero-skipped", 1), "window_cycles")
}

func BenchmarkFig12_ChunkValueDistribution(b *testing.B) {
	t := runFigure(b, "fig12")[0]
	b.ReportMetric(metric(b, t, "0", 1), "zero_frac")
}

func BenchmarkFig13_LastValueMatches(b *testing.B) {
	t := runFigure(b, "fig13")[0]
	b.ReportMetric(metric(b, t, "Geomean", 1), "match_frac")
}

func BenchmarkFig14_DeviceClasses(b *testing.B) {
	t := runFigure(b, "fig14")[0]
	b.ReportMetric(metric(b, t, "HP-HP", 1), "HPHP_L2_energy")
}

func BenchmarkFig15_SegmentSweep(b *testing.B) {
	t := runFigure(b, "fig15")[0]
	b.ReportMetric(metric(b, t, "Bus Invert Coding", 4), "bic8_L2_energy")
}

func BenchmarkFig16_L2EnergyBySchemes(b *testing.B) {
	t := runFigure(b, "fig16")[0]
	zero := metric(b, t, "Geomean", 7)
	b.ReportMetric(zero, "desczero_L2")
	b.ReportMetric(1/zero, "improvement_x")
}

func BenchmarkFig17_Synthesis(b *testing.B) {
	t := runFigure(b, "fig17")[0]
	b.ReportMetric(metric(b, t, "TX+RX", 2), "peak_mW")
}

func BenchmarkFig18_StaticDynamicSplit(b *testing.B) {
	t := runFigure(b, "fig18")[0]
	b.ReportMetric(metric(b, t, "Zero Skipped DESC", 2), "dynamic_frac")
}

func BenchmarkFig19_ProcessorEnergy(b *testing.B) {
	t := runFigure(b, "fig19")[0]
	b.ReportMetric(metric(b, t, "Geomean", 3), "proc_energy")
}

func BenchmarkFig20_ExecutionTime(b *testing.B) {
	t := runFigure(b, "fig20")[0]
	b.ReportMetric(metric(b, t, "Zero Skipped DESC", 1), "desczero_time")
}

func BenchmarkFig21_HitDelay(b *testing.B) {
	t := runFigure(b, "fig21")[0]
	b.ReportMetric(metric(b, t, "Average", 4)-metric(b, t, "Average", 2), "desc128_extra_cycles")
}

func BenchmarkFig22_DesignSpace(b *testing.B) {
	t := runFigure(b, "fig22")[0]
	b.ReportMetric(float64(t.NumRows()), "design_points")
}

func BenchmarkFig23_NUCATime(b *testing.B) {
	t := runFigure(b, "fig23")[0]
	b.ReportMetric(metric(b, t, "Geomean", 1), "nuca_time")
}

func BenchmarkFig24_NUCAEnergy(b *testing.B) {
	t := runFigure(b, "fig24")[0]
	v := metric(b, t, "Geomean", 1)
	b.ReportMetric(v, "nuca_L2")
	b.ReportMetric(1/v, "improvement_x")
}

func BenchmarkFig25_BankSweep(b *testing.B) {
	t := runFigure(b, "fig25")[0]
	b.ReportMetric(metric(b, t, "8", 1), "banks8_L2")
}

func BenchmarkFig26_ChunkSweep(b *testing.B) {
	t := runFigure(b, "fig26")[0]
	b.ReportMetric(float64(t.NumRows()), "points")
}

func BenchmarkFig27_CapacitySweep(b *testing.B) {
	t := runFigure(b, "fig27")[0]
	b.ReportMetric(float64(t.NumRows()), "capacities")
}

func BenchmarkFig28_ECCTime(b *testing.B) {
	t := runFigure(b, "fig28")[0]
	b.ReportMetric(metric(b, t, "Geomean", 4), "desc128_time")
}

func BenchmarkFig29_ECCEnergy(b *testing.B) {
	t := runFigure(b, "fig29")[0]
	v := metric(b, t, "Geomean", 4)
	b.ReportMetric(v, "desc128_L2")
	b.ReportMetric(1/v, "improvement_x")
}

func BenchmarkFig30_OoOTime(b *testing.B) {
	t := runFigure(b, "fig30")[0]
	b.ReportMetric(metric(b, t, "Geomean", 1), "ooo_time")
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

// BenchmarkSendDESCZeroScalar pins the scalar fallback path (ragged wire
// count) so both codec paths stay on the perf record.
func BenchmarkSendDESCZeroScalar(b *testing.B) { benchmarkScheme(b, "desc-zero", 24) }

// The byte-lane variants pin the 8-bit-chunk word kernel, the other half
// of the fast-path gate.
func BenchmarkSendDESCZeroBytes(b *testing.B) { benchmarkSchemeGeom(b, "desc-zero", 64, 8, 8) }
func BenchmarkSendDESCAdaptiveBytes(b *testing.B) {
	benchmarkSchemeGeom(b, "desc-adaptive", 64, 8, 8)
}

// The segBits-16 variants pin the baselines' scalar segment path, the
// control for the byte-segment word kernels above.
func BenchmarkSendDZCScalar(b *testing.B)       { benchmarkSchemeGeom(b, "dzc", 64, 4, 16) }
func BenchmarkSendBusInvertScalar(b *testing.B) { benchmarkSchemeGeom(b, "bic", 64, 4, 16) }

// The segment-width sweep's other literature-codec and dense-mode-field
// shapes: table lookups (fpf at 4 bits, lwc at 16), the wide walk (lwc
// at 64, one segment plus its spare wire) and the 16-segment base-3
// mode field.
func BenchmarkSendFPFSeg4(b *testing.B)          { benchmarkSchemeGeom(b, "fpf", 64, 4, 4) }
func BenchmarkSendLWCSeg16(b *testing.B)         { benchmarkSchemeGeom(b, "lwc", 64, 4, 16) }
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
