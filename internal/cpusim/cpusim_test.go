package cpusim

import (
	"context"
	"testing"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/workload"
)

func system(t *testing.T, scheme string, wires int) (*cachesim.Hierarchy, *workload.Generator) {
	t.Helper()
	prof := workload.Parallel()[0]
	gen := workload.NewGenerator(prof, 1)
	h, err := cachesim.New(cachesim.Config{
		L2: cachemodel.Config{Scheme: scheme, DataWires: wires},
	}, gen)
	if err != nil {
		t.Fatal(err)
	}
	return h, gen
}

func TestDefaults(t *testing.T) {
	mt := Config{}.WithDefaults()
	if mt.Cores != 8 || mt.ContextsPerCore != 4 || mt.IssueWidth != 1 {
		t.Errorf("in-order defaults %+v do not match Table 1", mt)
	}
	ooo := Config{Kind: OutOfOrder}.WithDefaults()
	if ooo.Cores != 1 || ooo.ContextsPerCore != 1 || ooo.IssueWidth != 4 {
		t.Errorf("OoO defaults %+v do not match Table 1", ooo)
	}
	if _, err := RunWith(context.Background(), Config{Cores: -1, ContextsPerCore: 1, IssueWidth: 1, InstrPerContext: 1}, nil, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestInstructionAccounting: the run commits exactly the configured budget.
func TestInstructionAccounting(t *testing.T) {
	h, gen := system(t, "binary", 64)
	cfg := Config{InstrPerContext: 5_000}
	res, err := RunWith(context.Background(), cfg, h, Streams(gen))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(8 * 4 * 5_000)
	if res.Instructions != want {
		t.Errorf("instructions = %d, want %d", res.Instructions, want)
	}
	if res.Cycles == 0 || res.MemRefs == 0 {
		t.Error("empty run")
	}
	// Memory-intensive profiles: a substantial fraction of instructions
	// reference memory.
	frac := float64(res.MemRefs) / float64(res.Instructions)
	if frac < 0.1 || frac > 0.6 {
		t.Errorf("memory reference fraction %.2f outside [0.1,0.6]", frac)
	}
}

// TestDeterminism: identical configurations reproduce cycle-exact results.
func TestDeterminism(t *testing.T) {
	run := func() Result {
		h, gen := system(t, "desc-zero", 128)
		res, err := RunWith(context.Background(), Config{InstrPerContext: 4_000}, h, Streams(gen))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.MemRefs != b.MemRefs {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestMultithreadingHidesLatency: with four contexts per core the
// execution time is far below the sum of serialized memory latencies, and
// fewer contexts run slower on the same per-context budget scaled to equal
// total work.
func TestMultithreadingHidesLatency(t *testing.T) {
	h1, gen1 := system(t, "binary", 64)
	one, err := RunWith(context.Background(), Config{Cores: 1, ContextsPerCore: 1, InstrPerContext: 16_000}, h1, Streams(gen1))
	if err != nil {
		t.Fatal(err)
	}
	h4, gen4 := system(t, "binary", 64)
	four, err := RunWith(context.Background(), Config{Cores: 1, ContextsPerCore: 4, InstrPerContext: 4_000}, h4, Streams(gen4))
	if err != nil {
		t.Fatal(err)
	}
	// Same total instructions on one core; four contexts overlap their
	// misses and should finish at least twice as fast.
	if four.Cycles*2 >= one.Cycles {
		t.Errorf("4 contexts (%d cycles) not ~2x faster than 1 context (%d cycles)", four.Cycles, one.Cycles)
	}
}

// TestDESCSlowdownSmallOnMT: the throughput-oriented multicore tolerates
// DESC's longer hit latency (Figure 20: under 2%).
func TestDESCSlowdownSmallOnMT(t *testing.T) {
	hb, genb := system(t, "binary", 64)
	base, err := RunWith(context.Background(), Config{InstrPerContext: 8_000}, hb, Streams(genb))
	if err != nil {
		t.Fatal(err)
	}
	hd, gend := system(t, "desc-zero", 128)
	descr, err := RunWith(context.Background(), Config{InstrPerContext: 8_000}, hd, Streams(gend))
	if err != nil {
		t.Fatal(err)
	}
	slowdown := float64(descr.Cycles)/float64(base.Cycles) - 1
	if slowdown > 0.05 {
		t.Errorf("multithreaded DESC slowdown %.1f%% exceeds 5%%", 100*slowdown)
	}
	// And DESC must actually lengthen L2 hits.
	if descr.AvgHitLatencyCycles <= base.AvgHitLatencyCycles {
		t.Error("DESC did not lengthen the average L2 hit")
	}
}

// TestOoOMoreSensitive: the latency-sensitive out-of-order core suffers
// more from DESC than the multithreaded cores do (Section 5.8).
func TestOoOMoreSensitive(t *testing.T) {
	prof := workload.SPEC()[1] // mcf: large working set
	ratioFor := func(kind CoreKind) float64 {
		gen := workload.NewGenerator(prof, 1)
		hb, err := cachesim.New(cachesim.Config{L2: cachemodel.Config{Scheme: "binary", DataWires: 64}}, gen)
		if err != nil {
			t.Fatal(err)
		}
		base, err := RunWith(context.Background(), Config{Kind: kind, InstrPerContext: 30_000}, hb, Streams(gen))
		if err != nil {
			t.Fatal(err)
		}
		gen2 := workload.NewGenerator(prof, 1)
		hd, err := cachesim.New(cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}}, gen2)
		if err != nil {
			t.Fatal(err)
		}
		descr, err := RunWith(context.Background(), Config{Kind: kind, InstrPerContext: 30_000}, hd, Streams(gen2))
		if err != nil {
			t.Fatal(err)
		}
		return float64(descr.Cycles) / float64(base.Cycles)
	}
	ooo := ratioFor(OutOfOrder)
	if ooo < 1.0 {
		t.Errorf("OoO DESC ratio %.3f; latency-sensitive core should slow down", ooo)
	}
	if ooo > 1.25 {
		t.Errorf("OoO DESC ratio %.3f unreasonably large", ooo)
	}
}

// TestHierarchyStatsPropagate: the result carries the hierarchy's counts.
func TestHierarchyStatsPropagate(t *testing.T) {
	h, gen := system(t, "binary", 64)
	res, err := RunWith(context.Background(), Config{InstrPerContext: 3_000}, h, Streams(gen))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hierarchy.L1Misses == 0 || res.Hierarchy.L2Hits+res.Hierarchy.L2Misses == 0 {
		t.Error("hierarchy stats missing from result")
	}
	if res.Hierarchy != h.Stats() {
		t.Error("result stats diverge from hierarchy stats")
	}
}
