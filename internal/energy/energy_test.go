package energy

import (
	"math"
	"testing"

	"desc/internal/cachemodel"
	"desc/internal/dram"
)

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{
		CoreDynJ: 1, L1DynJ: 2, CoreStaticJ: 3,
		L2HTreeJ: 4, L2ArrayJ: 5, L2StaticJ: 6,
		DRAMJ: 7,
	}
	if b.L2J() != 15 {
		t.Errorf("L2J = %v", b.L2J())
	}
	if b.L2DynJ() != 9 {
		t.Errorf("L2DynJ = %v", b.L2DynJ())
	}
	if b.ProcessorJ() != 21 {
		t.Errorf("ProcessorJ = %v", b.ProcessorJ())
	}
}

func TestComputeIntegratesModels(t *testing.T) {
	m, err := cachemodel.New(cachemodel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 64)
	for i := range block {
		block[i] = byte(i)
	}
	for i := 0; i < 10; i++ {
		m.Access(i%8, block, false)
	}
	mem := dram.New()
	mem.Access(0, 0, false)

	act := Activity{Cycles: 1_000_000, Instructions: 500_000, L1Accesses: 150_000, Cores: 8, ClockGHz: 3.2}
	b := Compute(NiagaraLike, act, m, mem)

	if b.CoreDynJ != 500_000*NiagaraLike.DynPJPerInstr*1e-12 {
		t.Error("core dynamic energy wrong")
	}
	if b.L1DynJ != 150_000*NiagaraLike.L1DynPJPerAccess*1e-12 {
		t.Error("L1 dynamic energy wrong")
	}
	seconds := 1_000_000 / 3.2e9
	wantStatic := (NiagaraLike.StaticWPerCore*8 + NiagaraLike.UncoreStaticW) * seconds
	if math.Abs(b.CoreStaticJ-wantStatic) > 1e-15 {
		t.Error("core static energy wrong")
	}
	_, _, h, a, _ := m.Stats()
	if b.L2HTreeJ != h || b.L2ArrayJ != a {
		t.Error("L2 components not taken from the model ledger")
	}
	if b.L2StaticJ <= 0 || b.DRAMJ <= 0 {
		t.Error("missing static or DRAM components")
	}

	// Nil DRAM is allowed (pure cache studies).
	b2 := Compute(NiagaraLike, act, m, nil)
	if b2.DRAMJ != 0 {
		t.Error("nil DRAM should contribute nothing")
	}
}

// TestCoreClasses: the OoO core burns more per instruction and more
// statically than the in-order multithreaded core.
func TestCoreClasses(t *testing.T) {
	if OoO4Issue.DynPJPerInstr <= NiagaraLike.DynPJPerInstr {
		t.Error("OoO per-instruction energy should exceed in-order")
	}
	if OoO4Issue.StaticWPerCore <= NiagaraLike.StaticWPerCore {
		t.Error("OoO static power should exceed in-order")
	}
}
