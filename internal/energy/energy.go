// Package energy is the McPAT-lite processor power model: it combines the
// core/L1 activity reported by internal/cpusim, the L2 ledger accumulated
// by internal/cachemodel, and DRAM energy into the breakdowns the paper
// plots (Figures 1, 2, 18, 19).
//
// Absolute per-event constants are representative of 22nm designs and are
// calibrated so the baseline configuration reproduces the paper's
// headline ratio: the 8MB L2 consumes about 15% of processor energy on
// the parallel workloads (Figure 1), with the H-tree dominating L2
// dynamic energy (Figure 2).
package energy

import (
	"desc/internal/cachemodel"
	"desc/internal/dram"
)

// CoreParams models one core class.
type CoreParams struct {
	// Name identifies the model.
	Name string
	// DynPJPerInstr is dynamic energy per committed instruction for the
	// pipeline, register files, and instruction supply (L1I included).
	DynPJPerInstr float64
	// L1DynPJPerAccess is the L1 data cache access energy.
	L1DynPJPerAccess float64
	// StaticWPerCore is per-core leakage (core + L1s).
	StaticWPerCore float64
	// UncoreStaticW is chip-level always-on power outside cores and L2
	// (clocking, IO, interconnect idle).
	UncoreStaticW float64
}

// NiagaraLike is the in-order multithreaded core of Table 1.
var NiagaraLike = CoreParams{
	Name:             "niagara-like",
	DynPJPerInstr:    26,
	L1DynPJPerAccess: 7,
	StaticWPerCore:   0.05,
	UncoreStaticW:    0.16,
}

// OoO4Issue is the 4-issue out-of-order core of Section 5.8. Wider
// structures cost more per instruction.
var OoO4Issue = CoreParams{
	Name:             "ooo-4issue",
	DynPJPerInstr:    68,
	L1DynPJPerAccess: 9,
	StaticWPerCore:   0.30,
	UncoreStaticW:    0.16,
}

// Breakdown is the energy decomposition of one run.
type Breakdown struct {
	// CoreDynJ, L1DynJ: core pipeline and L1D dynamic energy.
	CoreDynJ, L1DynJ float64
	// CoreStaticJ: core + uncore leakage over the run.
	CoreStaticJ float64
	// L2HTreeJ, L2ArrayJ: the L2 dynamic components (Figure 2).
	L2HTreeJ, L2ArrayJ float64
	// L2StaticJ: L2 leakage over the run.
	L2StaticJ float64
	// DRAMJ: DRAM access + background energy.
	DRAMJ float64
}

// L2J returns total L2 energy (the quantity normalized in Figures 16/18).
func (b Breakdown) L2J() float64 { return b.L2HTreeJ + b.L2ArrayJ + b.L2StaticJ }

// L2DynJ returns the dynamic part of the L2 energy.
func (b Breakdown) L2DynJ() float64 { return b.L2HTreeJ + b.L2ArrayJ }

// ProcessorJ returns processor energy: cores, L1s, and L2 (Figures 1/19
// exclude DRAM).
func (b Breakdown) ProcessorJ() float64 {
	return b.CoreDynJ + b.L1DynJ + b.CoreStaticJ + b.L2J()
}

// Activity is the run summary the model consumes.
type Activity struct {
	// Cycles is the execution time in core cycles.
	Cycles uint64
	// Instructions is the committed instruction count.
	Instructions uint64
	// L1Accesses is the data reference count.
	L1Accesses uint64
	// Cores is the active core count.
	Cores int
	// ClockGHz converts cycles to seconds.
	ClockGHz float64
}

// Compute produces the breakdown for a finished run.
func Compute(core CoreParams, act Activity, model *cachemodel.Model, mem *dram.DRAM) Breakdown {
	seconds := float64(act.Cycles) / (act.ClockGHz * 1e9)
	_, _, htreeJ, arrayJ, _ := model.Stats()
	var b Breakdown
	b.CoreDynJ = float64(act.Instructions) * core.DynPJPerInstr * 1e-12
	b.L1DynJ = float64(act.L1Accesses) * core.L1DynPJPerAccess * 1e-12
	b.CoreStaticJ = (core.StaticWPerCore*float64(act.Cores) + core.UncoreStaticW) * seconds
	b.L2HTreeJ = htreeJ
	b.L2ArrayJ = arrayJ
	b.L2StaticJ = model.LeakageW() * seconds
	if mem != nil {
		_, _, dramJ := mem.Stats()
		b.DRAMJ = dramJ + mem.BackgroundW()*seconds
	}
	return b
}
