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

// timeNorm returns one (spec, benchmark) execution time normalized to the
// binary baseline.
func timeNorm(ctx context.Context, r *Runner, spec SystemSpec, p workload.Profile) (float64, error) {
	base, err := r.RunOne(ctx, BinaryBase(), p)
	if err != nil {
		return 0, err
	}
	res, err := r.RunOne(ctx, spec, p)
	if err != nil {
		return 0, err
	}
	return ratio(float64(res.Cycles), float64(base.Cycles)), nil
}

// runFig20 reports execution time for every scheme, normalized to binary
// (paper: skipped DESC variants stay within 2%).
func runFig20(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	t := stats.NewTable("Figure 20: execution time normalized to binary",
		"Scheme", "Normalized time")
	for _, s := range allSchemes() {
		_, _, geo, err := geoOver(opt.benchmarks(), func(p workload.Profile) (float64, error) {
			return timeNorm(ctx, r, s, p)
		})
		if err != nil {
			return nil, err
		}
		t.AddRowValues(schemeLabel(s), geo)
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
	opt := r.Options()
	t := stats.NewTable("Figure 30: OoO execution time with zero-skipped DESC (normalized to binary)",
		"Benchmark", "Normalized time")
	profiles := workload.SPEC()
	if opt.Quick {
		profiles = profiles[:3]
	}
	base, desc := BinaryBase(), DESCZero()
	base.Kind, desc.Kind = cpusim.OutOfOrder, cpusim.OutOfOrder
	var vals []float64
	for _, p := range profiles {
		b, err := r.RunOne(ctx, base, p)
		if err != nil {
			return nil, err
		}
		res, err := r.RunOne(ctx, desc, p)
		if err != nil {
			return nil, err
		}
		v := ratio(float64(res.Cycles), float64(b.Cycles))
		vals = append(vals, v)
		t.AddRowValues(p.Name, v)
	}
	geo, err := stats.GeoMeanStrict(vals)
	if err != nil {
		return nil, fmt.Errorf("exp: fig30: %w", err)
	}
	t.AddRowValues("Geomean", geo)
	return []*stats.Table{t}, nil
}
