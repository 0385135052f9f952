// Package desc is a library reproduction of DESC — "Energy-Efficient Data
// Exchange using Synchronized Counters" (Bojnordi & Ipek, MICRO-46, 2013).
//
// DESC transmits k-bit chunks of data as the *time* between a shared reset
// strobe and a single toggle on the chunk's wire, making on-chip
// interconnect activity independent of data patterns; its value-skipping
// variants elide even that single toggle for zero or repeated chunks.
//
// The package exposes three layers:
//
//   - Codecs: DESC transmitters/receivers (analytic and cycle accurate)
//     plus the paper's baselines — conventional binary, serial, bus-invert
//     coding and variants, dynamic zero compression — all behind the Link
//     interface. Use NewLink or the re-exported constructors.
//   - System simulation: Simulate runs a synthetic benchmark on a
//     Niagara-like multicore (or an out-of-order core) with a banked 8MB
//     L2 whose data transfers flow through a chosen scheme, and returns
//     execution time and an energy breakdown.
//   - Experiments: RunExperiment regenerates any figure of the paper's
//     evaluation as result tables (see EXPERIMENTS.md).
//
// See the examples directory for runnable entry points.
package desc

import (
	"context"
	"fmt"

	"desc/internal/cachesim"
	"desc/internal/core"
	"desc/internal/cpusim"
	"desc/internal/exp"
	"desc/internal/link"
	"desc/internal/metrics"
	"desc/internal/stats"
	"desc/internal/wiremodel"
	"desc/internal/workload"
)

// SkipKind selects a DESC value-skipping variant.
type SkipKind = core.SkipKind

// The DESC variants: the paper's basic/zero/last-value skipping
// (Section 3.3) plus the adaptive most-frequent-value estimator the paper
// discusses and this repository implements as an extension.
const (
	SkipNone     = core.SkipNone
	SkipZero     = core.SkipZero
	SkipLast     = core.SkipLast
	SkipAdaptive = core.SkipAdaptive
)

// Codec is the fast analytic DESC link implementation.
type Codec = core.Codec

// NewCodec builds a DESC codec: blocks of blockBits transferred as
// chunkBits-wide chunks over the given number of data wires, with the
// chosen skipping variant.
func NewCodec(blockBits, chunkBits, wires int, kind SkipKind) (*Codec, error) {
	return core.NewCodec(blockBits, chunkBits, wires, kind)
}

// Channel is the cycle-accurate DESC transmitter/receiver pair connected
// by wires with an equalized propagation delay.
type Channel = core.Channel

// NewChannel builds a cycle-accurate channel; Send returns the transfer
// cost and the receiver's decoded block.
func NewChannel(blockBits, chunkBits, wires int, kind SkipKind, delayCycles int) (*Channel, error) {
	return core.NewChannel(blockBits, chunkBits, wires, kind, delayCycles)
}

// Link is the common interface of every transfer scheme.
type Link = link.Link

// Cost is the outcome of transferring one block.
type Cost = link.Cost

// FlipCount attributes wire transitions to wire classes.
type FlipCount = link.FlipCount

// LinkSpec selects and parameterizes a scheme by name.
type LinkSpec = link.Spec

// NewLink builds any registered scheme — see Schemes for the roster.
func NewLink(spec LinkSpec) (Link, error) { return link.New(spec) }

// Schemes lists the registered scheme names.
func Schemes() []string { return link.Schemes() }

// SchemeDescriptor is a scheme's registry entry: name, figure label, and
// the Traits self-description the model layers consume.
type SchemeDescriptor = link.Descriptor

// SchemeDescriptors returns every registered descriptor, sorted by name.
func SchemeDescriptors() []SchemeDescriptor { return link.Descriptors() }

// CoreKind selects the processor model for Simulate.
type CoreKind = cpusim.CoreKind

// Processor models of Table 1.
const (
	InOrderMT  = cpusim.InOrderMT
	OutOfOrder = cpusim.OutOfOrder
)

// SystemConfig describes one simulated system. The zero value (plus a
// Scheme) is the paper's design point: 8 in-order cores x 4 contexts at
// 3.2GHz, 8MB 16-way L2 in 8 banks, 22nm LSTP devices, two DDR3-1066
// channels.
type SystemConfig struct {
	// Scheme names the L2 data transfer scheme (default "binary").
	Scheme string
	// DataWires is the H-tree width (default 64; the DESC design point
	// uses 128).
	DataWires int
	// ChunkBits is the DESC chunk width (default 4).
	ChunkBits int
	// SegmentBits is the BIC/DZC segment size (default 8).
	SegmentBits int
	// Banks is the L2 bank count (default 8).
	Banks int
	// CapacityBytes is the L2 capacity (default 8MB).
	CapacityBytes int
	// NUCA selects the S-NUCA-1 organization.
	NUCA bool
	// ECCSegmentBits enables SECDED over segments of this many bits (the
	// paper uses 64 or 128; any width dividing the 512-bit block works);
	// 0 disables ECC and a negative width is an error.
	ECCSegmentBits int
	// Kind is the processor model (default InOrderMT); any other value
	// is an error.
	Kind CoreKind
	// InstrPerContext is each hardware context's instruction budget
	// (default 60_000; raise for tighter statistics).
	InstrPerContext uint64
	// Seed isolates runs (default 1).
	Seed int64
	// Metrics, when non-nil, receives the simulation's telemetry (see
	// MetricsRegistry): scheduler counters as it runs, and the cache
	// hierarchy's and the link's counts once it has finished. Metrics
	// are write-only observation and never change the SimResult.
	Metrics *MetricsRegistry
}

// MetricsRegistry is a typed registry of counters, gauges, and
// histograms (internal/metrics): pass one in SystemConfig.Metrics to
// observe a simulation, then call Snapshot for a stable-ordered dump.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// SimResult is a simulation outcome.
type SimResult struct {
	// Benchmark names the workload.
	Benchmark string
	// Cycles is the execution time in core cycles.
	Cycles uint64
	// Instructions and MemRefs are committed counts.
	Instructions, MemRefs uint64
	// L2EnergyJ is total L2 energy; HTreeJ/ArrayJ/StaticJ decompose it.
	L2EnergyJ, HTreeJ, ArrayJ, StaticJ float64
	// ProcessorEnergyJ is cores + L1s + L2 (DRAM excluded, as in the
	// paper's processor-energy figures).
	ProcessorEnergyJ float64
	// DRAMEnergyJ is main-memory energy.
	DRAMEnergyJ float64
	// AvgL2HitCycles is the mean L2 hit latency.
	AvgL2HitCycles float64
	// L2AreaMM2 is the cache area including scheme overheads.
	L2AreaMM2 float64
	// Stats carries the raw hierarchy event counts.
	Stats cachesim.Stats
}

// Benchmarks lists the sixteen parallel benchmark names (Table 2).
func Benchmarks() []string {
	var out []string
	for _, p := range workload.Parallel() {
		out = append(out, p.Name)
	}
	return out
}

// SPECBenchmarks lists the eight SPEC CPU2006 names used by the
// out-of-order study.
func SPECBenchmarks() []string {
	var out []string
	for _, p := range workload.SPEC() {
		out = append(out, p.Name)
	}
	return out
}

// Simulate runs one benchmark on the configured system.
func Simulate(cfg SystemConfig, benchmark string) (SimResult, error) {
	return SimulateContext(context.Background(), cfg, benchmark)
}

// SimulateContext is Simulate with cancellation: the simulation polls ctx
// and returns ctx.Err() promptly once it is done.
func SimulateContext(ctx context.Context, cfg SystemConfig, benchmark string) (SimResult, error) {
	prof, ok := workload.ByName(benchmark)
	if !ok {
		return SimResult{}, fmt.Errorf("desc: unknown benchmark %q (see Benchmarks, SPECBenchmarks)", benchmark)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.InstrPerContext == 0 {
		cfg.InstrPerContext = 60_000
	}
	gen := workload.NewGenerator(prof, cfg.Seed)
	spec := exp.SystemSpec{
		Scheme:        cfg.Scheme,
		DataWires:     cfg.DataWires,
		ChunkBits:     cfg.ChunkBits,
		SegmentBits:   cfg.SegmentBits,
		Banks:         cfg.Banks,
		CapacityBytes: cfg.CapacityBytes,
		NUCA:          cfg.NUCA,
		ECCSegment:    cfg.ECCSegmentBits,
		Kind:          cfg.Kind,
	}
	res, err := exp.Simulate(ctx, spec, gen, cpusim.Streams(gen), cfg.InstrPerContext, cfg.Metrics)
	if err != nil {
		return SimResult{}, err
	}
	return simResultOf(res), nil
}

// simResultOf renders one run's outcome as the public SimResult.
func simResultOf(r exp.RunResult) SimResult {
	return SimResult{
		Benchmark:        r.Bench,
		Cycles:           r.Cycles,
		Instructions:     r.Sim.Instructions,
		MemRefs:          r.Sim.MemRefs,
		L2EnergyJ:        r.Breakdown.L2J(),
		HTreeJ:           r.Breakdown.L2HTreeJ,
		ArrayJ:           r.Breakdown.L2ArrayJ,
		StaticJ:          r.Breakdown.L2StaticJ,
		ProcessorEnergyJ: r.Breakdown.ProcessorJ(),
		DRAMEnergyJ:      r.Breakdown.DRAMJ,
		AvgL2HitCycles:   r.AvgHit,
		L2AreaMM2:        r.AreaMM2,
		Stats:            r.Sim.Hierarchy,
	}
}

// Table is a rendered experiment result (markdown/CSV/ASCII chart).
type Table = stats.Table

// NewTable builds an empty results table with the given title and column
// headers; see Table for rendering methods.
func NewTable(title string, columns ...string) *Table {
	return stats.NewTable(title, columns...)
}

// ExperimentIDs lists the reproducible figures in paper order.
func ExperimentIDs() []string {
	var out []string
	for _, e := range exp.All() {
		out = append(out, e.ID)
	}
	return out
}

// ExperimentTitle returns the caption of an experiment.
func ExperimentTitle(id string) (string, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return "", fmt.Errorf("desc: unknown experiment %q", id)
	}
	return e.Title, nil
}

// RunExperiment regenerates one figure of the paper. quick trades
// precision for speed (reduced sweeps and instruction budgets).
func RunExperiment(id string, quick bool) ([]*Table, error) {
	return RunExperimentContext(context.Background(), id, quick, 0)
}

// RunExperimentContext is RunExperiment with cancellation and an explicit
// worker count: the experiment's planned runs execute on a pool of jobs
// workers (jobs = 0 selects runtime.GOMAXPROCS(0); negative jobs are an
// error). Each call uses a fresh run cache; callers that want
// cross-experiment reuse should drive internal/exp's Runner through
// descbench instead.
func RunExperimentContext(ctx context.Context, id string, quick bool, jobs int) ([]*Table, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return nil, fmt.Errorf("desc: unknown experiment %q (see ExperimentIDs)", id)
	}
	r, err := exp.NewRunner(exp.Options{Quick: quick}, exp.Jobs(jobs))
	if err != nil {
		return nil, fmt.Errorf("desc: %w", err)
	}
	return r.Run(ctx, e)
}

// TechnologyNodes returns the Table 3 technology parameters.
func TechnologyNodes() []wiremodel.Node {
	return []wiremodel.Node{wiremodel.Node45, wiremodel.Node22}
}
