package exp

import (
	"context"
	"fmt"

	"desc/internal/cpusim"
	"desc/internal/stats"
	"desc/internal/workload"
)

func init() {
	registerSim(Experiment{
		ID:    "fig20",
		Title: "Figure 20: execution time by data communication scheme",
		Run:   runFig20,
	})
	registerSim(Experiment{
		ID:    "fig21",
		Title: "Figure 21: average L2 hit delay, binary vs DESC",
		Run:   runFig21,
	})
	registerSim(Experiment{
		ID:    "fig30",
		Title: "Figure 30: out-of-order execution time (SPEC CPU2006)",
		Run:   runFig30,
	})
}

// runFig20 reports execution time for every scheme, normalized to binary
// (paper: skipped DESC variants stay within 2%).
func runFig20(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	profiles := r.Options().benchmarks()
	t := stats.NewTable("Figure 20: execution time normalized to binary",
		"Scheme", "Normalized time")
	for _, s := range allSchemes() {
		geo, err := sweepPoint(ctx, r, profiles, s, execTime)
		if err != nil {
			return nil, err
		}
		t.AddRowValues(schemeLabel(s), geo...)
	}
	return []*stats.Table{t}, nil
}

// runFig21 reports the average L2 hit delay in cycles for binary and
// zero-skipped DESC at 64- and 128-wire data buses (paper: DESC adds 31.2
// cycles at 64 wires and 8.45 at 128).
func runFig21(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	specs := []SystemSpec{
		{Scheme: "binary", DataWires: 64},
		{Scheme: "binary", DataWires: 128},
		{Scheme: "desc-zero", DataWires: 64, ChunkBits: 4},
		{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4},
	}
	t := stats.NewTable("Figure 21: average L2 hit delay (cycles)",
		"Benchmark", "64-bit Binary", "128-bit Binary", "64-bit DESC", "128-bit DESC")
	sums := make([]float64, len(specs))
	n := 0
	for _, p := range opt.benchmarks() {
		row := []string{p.Name}
		for i, s := range specs {
			res, err := r.RunOne(ctx, s, p)
			if err != nil {
				return nil, err
			}
			sums[i] += res.AvgHit
			row = append(row, fmt.Sprintf("%.1f", res.AvgHit))
		}
		n++
		t.AddRow(row...)
	}
	avg := []string{"Average"}
	for i := range specs {
		avg = append(avg, fmt.Sprintf("%.1f", sums[i]/float64(n)))
	}
	t.AddRow(avg...)
	return []*stats.Table{t}, nil
}

// runFig30 runs the eight SPEC CPU2006 profiles (the first three in Quick
// mode) on the out-of-order core and reports DESC execution time
// normalized to binary (paper: 6% average slowdown — the
// latency-sensitive case).
func runFig30(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	profiles := workload.SPEC()
	if r.Options().Quick {
		profiles = profiles[:3]
	}
	base, desc := BinaryBase(), DESCZero()
	base.Kind, desc.Kind = cpusim.OutOfOrder, cpusim.OutOfOrder
	return benchTable(ctx, r, "Figure 30: OoO execution time with zero-skipped DESC (normalized to binary)",
		[]string{"Benchmark", "Normalized time"}, profiles, base, []SystemSpec{desc}, execTime)
}
