package exp

import (
	"context"
	"fmt"

	"desc/internal/cachemodel"
	"desc/internal/cpusim"
	"desc/internal/stats"
	"desc/internal/wiremodel"
	"desc/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "tab01",
		Title: "Table 1: simulation parameters",
		Run:   runTab01,
	})
	register(Experiment{
		ID:    "tab02",
		Title: "Table 2: applications and data sets",
		Run:   runTab02,
	})
	register(Experiment{
		ID:    "tab03",
		Title: "Table 3: technology parameters",
		Run:   runTab03,
	})
}

// runTab01 prints the effective system defaults, which mirror Table 1.
func runTab01(context.Context, *Runner) ([]*stats.Table, error) {
	mt := cpusim.Config{}.WithDefaults()
	ooo := cpusim.Config{Kind: cpusim.OutOfOrder}.WithDefaults()
	m, err := cachemodel.New(cachemodel.Config{})
	if err != nil {
		return nil, err
	}
	l2 := m.Config()

	t := stats.NewTable("Table 1: simulation parameters", "Component", "Configuration")
	t.AddRow("Multithreaded core", fmt.Sprintf("%d in-order cores, %.1f GHz, %d HW contexts per core",
		mt.Cores, l2.ClockGHz, mt.ContextsPerCore))
	t.AddRow("Single-threaded", fmt.Sprintf("%d-issue out-of-order core, %d-cycle overlap window, %.1f GHz",
		ooo.IssueWidth, ooo.OverlapCycles, l2.ClockGHz))
	// The L1 geometry and the L2 associativity are cachesim's Table 1
	// constants, the 22nm node cachemodel's.
	t.AddRow("L1 caches (per core)", "16KB, 4-way, LRU, 64B block, hit delay 2, MESI-style directory")
	t.AddRow("L2 cache (shared)", fmt.Sprintf("%dMB, 16-way, LRU, %dB block, %d banks, %d-bit data H-tree",
		l2.CapacityBytes>>20, m.BlockBytes(), l2.Banks, l2.DataWires))
	t.AddRow("L2 devices", fmt.Sprintf("%s cells, %s periphery, %s", l2.Cells, l2.Periphery, wiremodel.Node22.Name))
	t.AddRow("DRAM", "2 DDR3-1066 channels, FR-FCFS row-buffer scheduling")
	return []*stats.Table{t}, nil
}

// runTab02 prints the benchmark roster with the calibrated value targets.
func runTab02(context.Context, *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Table 2: applications and data sets",
		"Benchmark", "Suite", "Working set", "Refs/Kinstr", "Zero chunks", "Prev matches")
	add := func(p workload.Profile) {
		t.AddRow(p.Name, p.Suite,
			fmt.Sprintf("%dMB", p.WorkingSetBytes>>20),
			fmt.Sprint(p.MemRefsPerKInstr),
			fmt.Sprintf("%.0f%%", 100*p.ZeroChunkFrac),
			fmt.Sprintf("%.0f%%", 100*p.LastValueMatchFrac))
	}
	for _, p := range workload.Parallel() {
		add(p)
	}
	for _, p := range workload.SPEC() {
		add(p)
	}
	return []*stats.Table{t}, nil
}

// runTab03 prints the technology parameters of Table 3.
func runTab03(context.Context, *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Table 3: technology parameters",
		"Technology", "Voltage", "FO4 delay", "Wire cap", "SRAM cell")
	for _, n := range []wiremodel.Node{wiremodel.Node45, wiremodel.Node22} {
		t.AddRow(n.Name,
			fmt.Sprintf("%.2f V", n.VddV),
			fmt.Sprintf("%.2f ps", n.FO4ps),
			fmt.Sprintf("%.0f fF/mm", n.WireCapFFPerMM),
			fmt.Sprintf("%.3f um^2", n.CellAreaUM2))
	}
	return []*stats.Table{t}, nil
}
