package exp

import (
	"context"
	"fmt"

	"desc/internal/stats"
	"desc/internal/wiremodel"
)

func init() {
	registerSim(Experiment{
		ID:    "fig14",
		Title: "Figure 14: L2 design space over ITRS device classes",
		Run:   runFig14,
	})
	registerSim(Experiment{
		ID:    "fig22",
		Title: "Figure 22: cache design space, binary vs DESC",
		Run:   runFig22,
	})
	registerSim(Experiment{
		ID:    "fig25",
		Title: "Figure 25: sensitivity to the number of banks",
		Run:   runFig25,
	})
	registerSim(Experiment{
		ID:    "fig26",
		Title: "Figure 26: sensitivity to chunk size and bus width",
		Run:   runFig26,
	})
	registerSim(Experiment{
		ID:    "fig27",
		Title: "Figure 27: impact of L2 capacity on cache energy",
		Run:   runFig27,
	})
}

// fig14Classes returns the device-class axis (restricted in Quick mode).
func fig14Classes(opt Options) []wiremodel.DeviceClass {
	if opt.Quick {
		return []wiremodel.DeviceClass{wiremodel.HP, wiremodel.LSTP}
	}
	return wiremodel.DeviceClasses
}

// fig14Specs crosses cell and periphery device classes for the binary
// baseline organization.
func fig14Specs(opt Options) []SystemSpec {
	var specs []SystemSpec
	for _, cells := range fig14Classes(opt) {
		for _, peri := range fig14Classes(opt) {
			specs = append(specs, SystemSpec{Scheme: "binary", DataWires: 64, Cells: cells, Periphery: peri})
		}
	}
	return specs
}

// runFig14 explores cell/periphery device classes for the baseline binary
// cache (paper: LSTP-LSTP with 8 banks and a 64-bit bus minimizes both L2
// and processor energy at a ~2% execution time cost versus HP).
func runFig14(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 14: device classes at 8 banks / 64-bit bus (normalized to LSTP-LSTP)",
		"Cells-Periphery", "L2 energy", "Execution time", "Processor energy")
	profiles := r.Options().sweepBenchmarks()
	for _, spec := range fig14Specs(r.Options()) {
		geo, err := sweepPoint(ctx, r, profiles, spec, l2Energy, execTime, procEnergy)
		if err != nil {
			return nil, err
		}
		t.AddRowValues(spec.Cells.String()+"-"+spec.Periphery.String(), geo...)
	}
	return []*stats.Table{t}, nil
}

// fig22Specs enumerates the scatter's design points: binary over bank
// count x bus width, then DESC additionally over chunk size.
func fig22Specs(opt Options) []SystemSpec {
	banks := []int{2, 8, 32}
	wires := []int{32, 64, 128, 256}
	chunks := []int{2, 4, 8}
	if opt.Quick {
		banks = []int{8}
		wires = []int{64, 128}
		chunks = []int{4}
	}
	var specs []SystemSpec
	for _, b := range banks {
		for _, w := range wires {
			specs = append(specs, SystemSpec{Scheme: "binary", DataWires: w, Banks: b})
		}
	}
	for _, b := range banks {
		for _, w := range wires {
			for _, ck := range chunks {
				specs = append(specs, SystemSpec{Scheme: "desc-zero", DataWires: w, Banks: b, ChunkBits: ck})
			}
		}
	}
	return specs
}

// runFig22 scatters design points — bank count x bus width (and chunk
// size for DESC) — in the energy/time plane (paper: DESC opens new
// design points with higher energy efficiency at little latency cost).
func runFig22(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 22: design points (normalized to 8 banks, 64-bit binary)",
		"Scheme", "Banks", "Wires", "Chunk", "L2 energy", "Execution time")
	profiles := r.Options().sweepBenchmarks()
	for _, spec := range fig22Specs(r.Options()) {
		geo, err := sweepPoint(ctx, r, profiles, spec, l2Energy, execTime)
		if err != nil {
			return nil, err
		}
		chunk := "-"
		if spec.ChunkBits > 0 {
			chunk = fmt.Sprint(spec.ChunkBits)
		}
		t.AddRow(spec.Scheme, fmt.Sprint(spec.Banks), fmt.Sprint(spec.DataWires), chunk,
			stats.Cell(geo[0]), stats.Cell(geo[1]))
	}
	return []*stats.Table{t}, nil
}

// fig25Specs sweeps the bank count for zero-skipped DESC.
func fig25Specs(opt Options) []SystemSpec {
	banks := []int{1, 2, 4, 8, 16, 32, 64}
	if opt.Quick {
		banks = []int{2, 8, 32}
	}
	var specs []SystemSpec
	for _, b := range banks {
		spec := DESCZero()
		spec.Banks = b
		specs = append(specs, spec)
	}
	return specs
}

// runFig25 sweeps the bank count for zero-skipped DESC (paper: both L2
// energy and execution time reach their best around 8 banks; beyond that
// per-bank overheads grow).
func runFig25(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 25: bank-count sensitivity (zero-skipped DESC, normalized to 8-bank binary)",
		"Banks", "L2 energy", "Execution time")
	profiles := r.Options().sweepBenchmarks()
	for _, spec := range fig25Specs(r.Options()) {
		geo, err := sweepPoint(ctx, r, profiles, spec, l2Energy, execTime)
		if err != nil {
			return nil, err
		}
		t.AddRowValues(fmt.Sprint(spec.Banks), geo...)
	}
	return []*stats.Table{t}, nil
}

// fig26Specs sweeps chunk size and bus width for zero-skipped DESC.
func fig26Specs(opt Options) []SystemSpec {
	chunkSizes := []int{1, 2, 4, 8}
	widths := []int{32, 64, 128, 256}
	if opt.Quick {
		chunkSizes = []int{2, 4}
		widths = []int{64, 128}
	}
	var specs []SystemSpec
	for _, ck := range chunkSizes {
		for _, w := range widths {
			specs = append(specs, SystemSpec{Scheme: "desc-zero", DataWires: w, ChunkBits: ck})
		}
	}
	return specs
}

// runFig26 sweeps chunk size (1..8 bits) and bus width (32..256 wires)
// for zero-skipped DESC (paper: 4-bit chunks with 128 wires give the best
// L2 energy-delay product).
func runFig26(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 26: chunk-size / width sensitivity (zero-skipped DESC, normalized to binary)",
		"Chunk bits", "Wires", "L2 energy", "Execution time", "Energy-delay")
	profiles := r.Options().sweepBenchmarks()
	for _, spec := range fig26Specs(r.Options()) {
		geo, err := sweepPoint(ctx, r, profiles, spec, l2Energy, execTime)
		if err != nil {
			return nil, err
		}
		l2, tm := geo[0], geo[1]
		t.AddRowValues(fmt.Sprintf("%d", spec.ChunkBits), float64(spec.DataWires), l2, tm, l2*tm)
	}
	return []*stats.Table{t}, nil
}

// fig27Caps returns the swept L2 capacities.
func fig27Caps(opt Options) []int {
	if opt.Quick {
		return []int{1 << 20, 8 << 20, 32 << 20}
	}
	return []int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20}
}

// runFig27 sweeps the L2 capacity (paper: DESC improves cache energy by
// 1.87x at 512KB down to 1.75x at 64MB).
func runFig27(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	profiles := opt.sweepBenchmarks()
	t := stats.NewTable("Figure 27: L2 capacity vs cache energy (normalized to 8MB binary)",
		"Capacity", "Binary", "DESC", "Improvement")
	for _, c := range fig27Caps(opt) {
		dSpec := DESCZero()
		dSpec.CapacityBytes = c
		specs := []SystemSpec{{Scheme: "binary", DataWires: 64, CapacityBytes: c}, dSpec}
		vals, err := normalized(ctx, r, profiles, BinaryBase(), specs, l2Energy)
		if err != nil {
			return nil, err
		}
		var geo [2]float64
		for i, s := range specs {
			if geo[i], err = geomean(s, profiles, vals[i][0]); err != nil {
				return nil, err
			}
		}
		t.AddRow(capLabel(c), stats.Cell(geo[0]), stats.Cell(geo[1]),
			fmt.Sprintf("%.3gx", ratio(geo[0], geo[1])))
	}
	return []*stats.Table{t}, nil
}

func capLabel(c int) string {
	if c >= 1<<20 {
		return fmt.Sprintf("%dMB", c>>20)
	}
	return fmt.Sprintf("%dKB", c>>10)
}
