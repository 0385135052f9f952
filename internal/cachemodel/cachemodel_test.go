package cachemodel

import (
	"math/rand"
	"testing"

	"desc/internal/wiremodel"
)

func model(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultsAreTheDesignPoint(t *testing.T) {
	m := model(t, Config{})
	cfg := m.Config()
	if cfg.CapacityBytes != 8<<20 || cfg.Banks != 8 || m.BlockBytes() != 64 ||
		cfg.DataWires != 64 || cfg.Scheme != "binary" {
		t.Errorf("defaults %+v do not match Table 1 / Section 4.1", cfg)
	}
	if cfg.ClockGHz != 3.2 {
		t.Errorf("clock %v, want 3.2GHz", cfg.ClockGHz)
	}
	if node.Name != "22nm" || cfg.Cells != wiremodel.LSTP || cfg.Periphery != wiremodel.LSTP {
		t.Error("default technology should be 22nm LSTP-LSTP")
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Banks: 3, CapacityBytes: 8 << 20}); err == nil {
		t.Error("capacity not divisible by banks accepted")
	}
	if _, err := New(Config{Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := New(Config{ECC: ECCConfig{Enabled: true, SegmentBits: 100}}); err == nil {
		t.Error("non-divisible ECC segmentation accepted")
	}
}

func TestAccessAccounting(t *testing.T) {
	m := model(t, Config{})
	block := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(block)
	r := m.Access(0, block, false)
	if r.Cycles <= 0 || r.TransferCycles <= 0 {
		t.Errorf("non-positive latency: %+v", r)
	}
	if r.EnergyJ <= 0 || r.HTreeJ <= 0 || r.ArrayJ <= 0 {
		t.Errorf("non-positive energy: %+v", r)
	}
	if r.EnergyJ != r.HTreeJ+r.ArrayJ {
		t.Error("energy components do not sum")
	}
	acc, e, h, a, x := m.Stats()
	if acc != 1 || e != r.EnergyJ || h != r.HTreeJ || a != r.ArrayJ || x != uint64(r.TransferCycles) {
		t.Error("ledger does not match the access result")
	}
}

// TestHTreeDominates: at the LSTP design point the H-tree is the dominant
// dynamic energy component (Figure 2).
func TestHTreeDominates(t *testing.T) {
	m := model(t, Config{})
	rng := rand.New(rand.NewSource(2))
	block := make([]byte, 64)
	for i := 0; i < 50; i++ {
		rng.Read(block)
		m.Access(i%8, block, i%3 == 0)
	}
	_, e, h, _, _ := m.Stats()
	if h/e < 0.6 {
		t.Errorf("H-tree share %.2f of dynamic energy; Figure 2 shows it dominating", h/e)
	}
}

// TestWritesCostMore: array write energy exceeds read energy.
func TestWritesCostMore(t *testing.T) {
	m := model(t, Config{})
	block := make([]byte, 64)
	r := m.Access(0, block, false)
	w := m.Access(0, block, true)
	if w.ArrayJ <= r.ArrayJ {
		t.Error("write array energy should exceed read")
	}
}

// TestDESCLatencyDataDependent: DESC transfer time tracks the chunk
// values; an all-zero block is much faster than an all-0xF block under
// zero skipping.
func TestDESCLatencyDataDependent(t *testing.T) {
	m := model(t, Config{Scheme: "desc-zero", DataWires: 128})
	zeros := make([]byte, 64)
	ones := make([]byte, 64)
	for i := range ones {
		ones[i] = 0xFF
	}
	rz := m.Access(0, zeros, false)
	ro := m.Access(1, ones, false)
	if rz.TransferCycles >= ro.TransferCycles {
		t.Errorf("zero block transfer %d not faster than 0xF block %d",
			rz.TransferCycles, ro.TransferCycles)
	}
}

// TestDESCAreaOverhead: DESC adds about 1% cache area (Section 5.1).
func TestDESCAreaOverhead(t *testing.T) {
	binary := model(t, Config{})
	descm := model(t, Config{Scheme: "desc-zero", DataWires: 128})
	over := descm.AreaMM2()/binary.AreaMM2() - 1
	if over <= 0 || over > 0.02 {
		t.Errorf("DESC area overhead %.3f%% outside (0,2%%]", 100*over)
	}
}

// TestLeakageComparisons: HP cells multiply leakage; last-value DESC adds
// its tracking-store overhead.
func TestLeakageComparisons(t *testing.T) {
	lstp := model(t, Config{}).LeakageW()
	hp := model(t, Config{Cells: wiremodel.HP, Periphery: wiremodel.HP}).LeakageW()
	if hp/lstp < 20 {
		t.Errorf("HP/LSTP leakage ratio %.1f too small", hp/lstp)
	}
	last := model(t, Config{Scheme: "desc-last", DataWires: 128}).LeakageW()
	zero := model(t, Config{Scheme: "desc-zero", DataWires: 128}).LeakageW()
	if last <= zero {
		t.Error("last-value DESC should leak more than zero-skipped (tracking store)")
	}
}

// TestNUCAPathsVary: S-NUCA-1 banks have distance-dependent paths; UCA
// equalizes them.
func TestNUCAPathsVary(t *testing.T) {
	uca := model(t, Config{Banks: 16})
	for b := 1; b < 16; b++ {
		if uca.pathMM[b] != uca.pathMM[0] {
			t.Fatal("UCA paths differ across banks")
		}
	}
	nuca := model(t, Config{Banks: 16, NUCA: true})
	minP, maxP := nuca.pathMM[0], nuca.pathMM[0]
	for b := 1; b < 16; b++ {
		if p := nuca.pathMM[b]; p < minP {
			minP = p
		} else if p > maxP {
			maxP = p
		}
	}
	if maxP <= minP {
		t.Error("NUCA paths should vary with bank position")
	}
	if maxP >= uca.pathMM[0]*1.5 {
		t.Error("NUCA worst path should not dwarf the UCA balanced path")
	}
}

// TestECCWidensTransfers: SECDED scales stored and transferred bits by
// n/k and routes parity wires.
func TestECCWidensTransfers(t *testing.T) {
	plain := model(t, Config{})
	prot := model(t, Config{ECC: ECCConfig{Enabled: true, SegmentBits: 128}})
	block := make([]byte, 64)
	for i := range block {
		block[i] = 0x5A
	}
	p := plain.Access(0, block, false)
	e := prot.Access(0, block, false)
	if e.EnergyJ <= p.EnergyJ {
		t.Error("ECC access should cost more energy")
	}
	ratio := e.HTreeJ / p.HTreeJ
	want := 548.0 / 512.0 // (137,128) widening
	if ratio < 1.01 || ratio > want*1.15 {
		t.Errorf("ECC H-tree scaling %.3f outside (1.01, %.3f]", ratio, want*1.15)
	}
	if prot.LeakageW() <= plain.LeakageW() {
		t.Error("parity wires should add repeater leakage")
	}
}

// TestLastValueWriteBroadcast: last-value DESC writes carry the broadcast
// penalty of Section 5.2.
func TestLastValueWriteBroadcast(t *testing.T) {
	last := model(t, Config{Scheme: "desc-last", DataWires: 128})
	zero := model(t, Config{Scheme: "desc-zero", DataWires: 128})
	block := make([]byte, 64)
	for i := range block {
		block[i] = byte(i)
	}
	lw := last.Access(0, block, true)
	zw := zero.Access(0, block, true)
	if lw.HTreeJ <= zw.HTreeJ {
		t.Error("last-value write should cost more H-tree energy than zero-skip write")
	}
}

// TestBankBounds: out-of-range banks panic (a simulator bug, not an input
// error).
func TestBankBounds(t *testing.T) {
	m := model(t, Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Access(99, make([]byte, 64), false)
}

// TestTagProbe: probes take less time than data accesses.
func TestTagProbe(t *testing.T) {
	m := model(t, Config{})
	block := make([]byte, 64)
	r := m.Access(0, block, false)
	if int64(m.TagProbeCycles(0)) >= r.Cycles {
		t.Error("tag probe should be faster than a full access")
	}
}
