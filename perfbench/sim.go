package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"desc"
	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/cpusim"
	"desc/internal/energy"
	"desc/internal/exp"
	"desc/internal/metrics"
	"desc/internal/workload"
)

// simCounts accumulates the exact event counts of traced simulator runs;
// they repeat bit for bit, so a perf-only change must leave them alone.
type simCounts struct {
	runs           uint64
	modelAccesses  uint64
	l2Hits, l2Miss uint64
	mshrMerges     uint64
	queueDelay     uint64
	quanta         uint64
}

// simulate is the simulator pipeline assembled from the layers' public
// functions, exactly as exp.simulate and desc.SimulateContext assemble
// it, with a span at every layer boundary and the per-access sources
// wrapped. Its results must equal the library's bit for bit; the
// workloads check that on every traced op.
func simulate(ctx context.Context, tr *tracer, parent, op int, spec exp.SystemSpec, prof workload.Profile, seed int64, instr uint64, counts *simCounts) (exp.RunResult, error) {
	sp := tr.begin(parent, op, "workload", "workload.NewGenerator")
	gen := workload.NewGenerator(prof, seed)
	tr.end(sp)

	l2 := cachemodel.Config{
		Scheme:        spec.Scheme,
		DataWires:     spec.DataWires,
		ChunkBits:     spec.ChunkBits,
		SegmentBits:   spec.SegmentBits,
		Banks:         spec.Banks,
		CapacityBytes: spec.CapacityBytes,
		Cells:         spec.Cells,
		Periphery:     spec.Periphery,
		NUCA:          spec.NUCA,
	}
	if spec.ECCSegment > 0 {
		l2.ECC = cachemodel.ECCConfig{Enabled: true, SegmentBits: spec.ECCSegment}
	}
	reg := metrics.NewRegistry()
	blocks := &timedBlocks{src: gen}
	sp = tr.begin(parent, op, "cachesim", "cachesim.New")
	h, err := cachesim.New(cachesim.Config{L2: l2, PrefetchNextLine: spec.Prefetch}, blocks)
	tr.end(sp)
	if err != nil {
		return exp.RunResult{}, err
	}
	simCfg := cpusim.Config{Kind: spec.Kind, InstrPerContext: instr, Seed: seed, Metrics: reg}.WithDefaults()
	streams := &timedStreams{gen: gen}
	sp = tr.begin(parent, op, "cpusim", "cpusim.RunWith")
	res, err := cpusim.RunWith(ctx, simCfg, h, streams)
	tr.end(sp)
	tr.aggregate(sp, "workload", "workload.FillBlockData", blocks.calls, blocks.d)
	tr.aggregate(sp, "workload", "workload.Stream.Next", streams.calls, streams.d)
	if err != nil {
		return exp.RunResult{}, err
	}
	params := energy.NiagaraLike
	if spec.Kind == cpusim.OutOfOrder {
		params = energy.OoO4Issue
	}
	sp = tr.begin(parent, op, "energy", "energy.Compute")
	bd := energy.Compute(params, energy.Activity{
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		L1Accesses:   res.MemRefs,
		Cores:        simCfg.Cores,
		ClockGHz:     h.Model().Config().ClockGHz,
	}, h.Model(), h.DRAM())
	tr.end(sp)

	accesses, _, _, _, _ := h.Model().Stats()
	st := res.Hierarchy
	counts.runs++
	counts.modelAccesses += accesses
	counts.l2Hits += st.L2Hits
	counts.l2Miss += st.L2Misses
	counts.mshrMerges += st.MSHRMerges
	counts.queueDelay += st.QueueDelaySumCycles
	counts.quanta += reg.Counter("cpusim/quanta").Value()

	return exp.RunResult{
		Bench:     prof.Name,
		Cycles:    res.Cycles,
		Breakdown: bd,
		AvgHit:    res.AvgHitLatencyCycles,
		Sim:       res,
		AreaMM2:   h.Model().AreaMM2(),
		LeakageW:  h.Model().LeakageW(),
	}, nil
}

// specOf maps a public SystemConfig onto the runner's spec type; the
// two name the same design point for the fields the rotation sets.
func specOf(c desc.SystemConfig) exp.SystemSpec {
	return exp.SystemSpec{Scheme: c.Scheme, DataWires: c.DataWires, ChunkBits: c.ChunkBits, SegmentBits: c.SegmentBits}
}

// simResultOf renders a runner result as the public API's SimResult, the
// way desc.SimulateContext builds it.
func simResultOf(r exp.RunResult) desc.SimResult {
	return desc.SimResult{
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

// goldenSim is the exact-bits image of a SimResult stored in
// testdata/golden_simresults.json (the root golden test's format).
type goldenSim struct {
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	MemRefs      uint64 `json:"mem_refs"`
	L2EnergyBits uint64 `json:"l2_energy_bits"`
	HTreeBits    uint64 `json:"htree_bits"`
	ArrayBits    uint64 `json:"array_bits"`
	StaticBits   uint64 `json:"static_bits"`
	ProcBits     uint64 `json:"proc_bits"`
	DRAMBits     uint64 `json:"dram_bits"`
	AvgHitBits   uint64 `json:"avg_hit_bits"`
	AreaBits     uint64 `json:"area_bits"`
	L2Hits       uint64 `json:"l2_hits"`
	L2Misses     uint64 `json:"l2_misses"`
}

func goldenSimOf(r desc.SimResult) goldenSim {
	return goldenSim{
		Cycles:       r.Cycles,
		Instructions: r.Instructions,
		MemRefs:      r.MemRefs,
		L2EnergyBits: math.Float64bits(r.L2EnergyJ),
		HTreeBits:    math.Float64bits(r.HTreeJ),
		ArrayBits:    math.Float64bits(r.ArrayJ),
		StaticBits:   math.Float64bits(r.StaticJ),
		ProcBits:     math.Float64bits(r.ProcessorEnergyJ),
		DRAMBits:     math.Float64bits(r.DRAMEnergyJ),
		AvgHitBits:   math.Float64bits(r.AvgL2HitCycles),
		AreaBits:     math.Float64bits(r.L2AreaMM2),
		L2Hits:       r.Stats.L2Hits,
		L2Misses:     r.Stats.L2Misses,
	}
}

// goldenPath is read from the checkout, not copied: an intentional model
// change regenerates that one file and the benchmark follows.
const goldenPath = "testdata/golden_simresults.json"

// goldenConfigs are the ten pinned configurations of the golden file:
// Art, seed 11, 4k instructions per context.
var goldenConfigs = map[string]desc.SystemConfig{
	"binary":        {Scheme: "binary", DataWires: 64},
	"serial":        {Scheme: "serial", DataWires: 64},
	"bic":           {Scheme: "bic", DataWires: 64, SegmentBits: 8},
	"bic-zs":        {Scheme: "bic-zs", DataWires: 64, SegmentBits: 8},
	"bic-ezs":       {Scheme: "bic-ezs", DataWires: 64, SegmentBits: 8},
	"dzc":           {Scheme: "dzc", DataWires: 64, SegmentBits: 8},
	"desc-basic":    {Scheme: "desc-basic", DataWires: 128, ChunkBits: 4},
	"desc-zero":     {Scheme: "desc-zero", DataWires: 128, ChunkBits: 4},
	"desc-last":     {Scheme: "desc-last", DataWires: 128, ChunkBits: 4},
	"desc-adaptive": {Scheme: "desc-adaptive", DataWires: 128, ChunkBits: 4},
}

// checkGolden re-runs the pinned configurations and returns one message
// per configuration whose result differs from want in any bit.
func checkGolden(ctx context.Context, want map[string]goldenSim) ([]string, error) {
	var bad []string
	names := make([]string, 0, len(goldenConfigs))
	for name := range goldenConfigs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := goldenConfigs[name]
		cfg.Seed, cfg.InstrPerContext = 11, 4_000
		runtime.GC()
		res, err := desc.SimulateContext(ctx, cfg, "Art")
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
		if w, ok := want[name]; !ok {
			bad = append(bad, name+": missing from "+goldenPath)
		} else if goldenSimOf(res) != w {
			bad = append(bad, name+": result differs from "+goldenPath)
		}
	}
	return bad, nil
}

func readGolden() (map[string]goldenSim, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden results (run from the repository root): %w", err)
	}
	want := map[string]goldenSim{}
	if err := json.Unmarshal(data, &want); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	return want, nil
}

// simOp is one entry of the sim-design-point rotation.
type simOp struct {
	sys   desc.SystemConfig
	bench string
}

// simDesignPoint runs serial public-API simulations over a fixed
// rotation of design points and benchmarks.
type simDesignPoint struct {
	seed   int64
	rot    []simOp
	want   []desc.SimResult // first result recorded per rotation entry
	golden map[string]goldenSim
	lc     *layerCounts
}

// designPoints cross the paper's preferred DESC point with the binary
// baseline.
var designPoints = []desc.SystemConfig{
	{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4},
	{Scheme: "binary", DataWires: 64},
}

// rotationBenchmarks span working sets below and above the 8 MB L2.
// Five benchmarks in the rotation put op_ms_p50 and op_ms_p90 in the
// middle of one benchmark's latency cluster, not on the edge between two.
var rotationBenchmarks = []string{"Water-Spatial", "Radix", "Art", "Ocean", "Linear"}

func newSimDesignPoint(sc scale, seed int64, lc *layerCounts) (*simDesignPoint, error) {
	golden, err := readGolden()
	if err != nil {
		return nil, err
	}
	w := &simDesignPoint{seed: seed, golden: golden, lc: lc}
	for _, b := range rotationBenchmarks {
		for _, sys := range designPoints {
			sys.Seed, sys.InstrPerContext = seed, sc.simInstr
			w.rot = append(w.rot, simOp{sys: sys, bench: b})
		}
	}
	return w, nil
}

// setup checks the golden configurations bit for bit, then warms up with
// one untimed rotation whose results become every later op's reference.
func (w *simDesignPoint) setup(ctx context.Context) ([]string, error) {
	bad, err := checkGolden(ctx, w.golden)
	if err != nil {
		return nil, err
	}
	want := make([]desc.SimResult, len(w.rot))
	for i, o := range w.rot {
		runtime.GC()
		if want[i], err = desc.SimulateContext(ctx, o.sys, o.bench); err != nil {
			return nil, err
		}
		if w.want != nil && want[i] != w.want[i] {
			bad = append(bad, fmt.Sprintf("%s/%s: repeated set-up gave a different result", o.sys.Scheme, o.bench))
		}
	}
	w.want = want
	return bad, nil
}

// step runs one rotation. Traced, each op goes through the benchmark's
// own assembly of the pipeline so every layer boundary gets a span.
func (w *simDesignPoint) step(ctx context.Context, tr *tracer, next func() int) (stepResult, error) {
	var sr stepResult
	for i, o := range w.rot {
		op := next()
		runtime.GC()
		t := time.Now()
		sp := tr.begin(-1, op, "bench", opSpan)
		var res desc.SimResult
		var err error
		if tr == nil {
			res, err = desc.SimulateContext(ctx, o.sys, o.bench)
		} else {
			prof, _ := workload.ByName(o.bench)
			var rr exp.RunResult
			rr, err = simulate(ctx, tr, sp, op, specOf(o.sys), prof, o.sys.Seed, o.sys.InstrPerContext, &w.lc.sim)
			res = simResultOf(rr)
		}
		tr.end(sp)
		d := time.Since(t)
		sr.wall += d
		sr.opMS = append(sr.opMS, ms(d))
		sr.simInstr += res.Instructions
		if err != nil || res != w.want[i] {
			sr.failed++
		}
	}
	return sr, nil
}

func (w *simDesignPoint) blocks() []byte { return genBlocks(rotationBenchmarks, w.seed, 1024) }

func (w *simDesignPoint) close() {}

// genBlocks draws n blocks per benchmark from the workload generators at
// the addresses their first stream touches.
func genBlocks(benches []string, seed int64, n int) []byte {
	out := make([]byte, 0, len(benches)*n*64)
	for _, b := range benches {
		prof, _ := workload.ByName(b)
		gen := workload.NewGenerator(prof, seed)
		st := gen.Stream(0, 32)
		var buf [64]byte
		for i := 0; i < n; i++ {
			gen.FillBlockData(st.Next().Addr, buf[:])
			out = append(out, buf[:]...)
		}
	}
	return out
}
