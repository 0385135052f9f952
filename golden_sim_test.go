package desc

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"desc/internal/exp"
	"desc/internal/workload"
)

// The golden SimResult vectors pin the full system-level outcome of every
// scheme that existed before the descriptor-registry refactor: the
// trait-driven cache model (link.Descriptor.Traits feeding the DESC
// interface, history, and codec-cycle accounting) must reproduce the
// pre-refactor name-switch behavior bit for bit. Floats are stored as
// IEEE-754 bit patterns so "byte-identical" means exactly that.
//
// After an *intentional* semantic change, regenerate with:
//
//	go test -run TestGoldenSimResults -update-sim .
var updateGoldenSim = flag.Bool("update-sim", false, "regenerate testdata/golden_simresults.json")

const goldenSimPath = "testdata/golden_simresults.json"

// goldenSimSchemes are the eight schemes registered before the descriptor
// refactor. The list is fixed on purpose: newly registered schemes get
// their own coverage (conformance harness, golden costs, ext-zoo) without
// invalidating this pre-refactor pin.
var goldenSimSchemes = []struct {
	scheme               string
	wires, chunk, segble int
}{
	{"binary", 64, 0, 0},
	{"serial", 64, 0, 0},
	{"bic", 64, 0, 8},
	{"bic-zs", 64, 0, 8},
	{"bic-ezs", 64, 0, 8},
	{"dzc", 64, 0, 8},
	{"desc-basic", 128, 4, 0},
	{"desc-zero", 128, 4, 0},
	{"desc-last", 128, 4, 0},
	{"desc-adaptive", 128, 4, 0},
}

// goldenSim is the exact-bits JSON image of a SimResult.
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

func goldenSimOf(r SimResult) goldenSim {
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

// TestGoldenSimResults pins every configuration through both callers of
// the simulation pipeline: the public Simulate and an experiment Runner
// at the same seed and budget must each reproduce the golden entry.
func TestGoldenSimResults(t *testing.T) {
	const seed, instr = 11, 4_000
	runner, err := exp.NewRunner(exp.Options{Seed: seed, InstrPerContext: instr})
	if err != nil {
		t.Fatal(err)
	}
	art, _ := workload.ByName("Art")
	got := map[string]goldenSim{}
	viaRunner := map[string]goldenSim{}
	for _, s := range goldenSimSchemes {
		res, err := Simulate(SystemConfig{
			Scheme:          s.scheme,
			DataWires:       s.wires,
			ChunkBits:       s.chunk,
			SegmentBits:     s.segble,
			Seed:            seed,
			InstrPerContext: instr,
		}, "Art")
		if err != nil {
			t.Fatalf("%s: %v", s.scheme, err)
		}
		got[s.scheme] = goldenSimOf(res)
		spec := exp.SystemSpec{Scheme: s.scheme, DataWires: s.wires, ChunkBits: s.chunk, SegmentBits: s.segble}
		rr, err := runner.RunOne(context.Background(), spec, art)
		if err != nil {
			t.Fatalf("%s via Runner: %v", s.scheme, err)
		}
		viaRunner[s.scheme] = goldenSimOf(simResultOf(rr))
	}

	if *updateGoldenSim {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSimPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenSimPath)
		return
	}

	data, err := os.ReadFile(goldenSimPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test -run TestGoldenSimResults -update-sim .)", err)
	}
	want := map[string]goldenSim{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for scheme, g := range got {
		pinned, ok := want[scheme]
		if !ok {
			t.Errorf("%s: no golden SimResult (regenerate with -update-sim)", scheme)
			continue
		}
		if g != pinned {
			t.Errorf("%s: SimResult diverges from pre-refactor golden:\ngot  %+v\nwant %+v", scheme, g, pinned)
		}
		if r := viaRunner[scheme]; r != pinned {
			t.Errorf("%s: Runner result diverges from golden:\ngot  %+v\nwant %+v", scheme, r, pinned)
		}
	}
}
