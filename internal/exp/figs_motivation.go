package exp

import (
	"context"
	"fmt"

	"desc/internal/stats"
)

func init() {
	registerSim(Experiment{
		ID:    "fig01",
		Title: "Figure 1: L2 energy as a fraction of total processor energy",
		Run:   runFig01,
	})
	registerSim(Experiment{
		ID:    "fig02",
		Title: "Figure 2: components of overall 8MB L2 energy (LSTP devices)",
		Run:   runFig02,
	})
}

// runFig01 reproduces the motivation: with conventional binary transfer,
// the 8MB LSTP L2 consumes ~15% of processor energy on average.
func runFig01(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	t := stats.NewTable("Figure 1: L2 / processor energy (binary encoding)",
		"Benchmark", "L2 fraction")
	var fracs []float64
	for _, p := range opt.benchmarks() {
		res, err := r.RunOne(ctx, BinaryBase(), p)
		if err != nil {
			return nil, err
		}
		f := ratio(res.Breakdown.L2J(), res.Breakdown.ProcessorJ())
		fracs = append(fracs, f)
		t.AddRowValues(p.Name, f)
	}
	geo, err := stats.GeoMeanStrict(fracs)
	if err != nil {
		return nil, fmt.Errorf("exp: fig01: %w", err)
	}
	t.AddRowValues("Geomean", geo)
	return []*stats.Table{t}, nil
}

// runFig02 decomposes L2 energy: the H-tree dominates (~80%) under LSTP.
func runFig02(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	t := stats.NewTable("Figure 2: L2 energy breakdown (binary encoding)",
		"Benchmark", "Static", "Other dynamic", "H-tree dynamic")
	var st, dy, ht []float64
	for _, p := range opt.benchmarks() {
		res, err := r.RunOne(ctx, BinaryBase(), p)
		if err != nil {
			return nil, err
		}
		total := res.Breakdown.L2J()
		s := ratio(res.Breakdown.L2StaticJ, total)
		h := ratio(res.Breakdown.L2HTreeJ, total)
		d := ratio(res.Breakdown.L2ArrayJ, total)
		st, dy, ht = append(st, s), append(dy, d), append(ht, h)
		t.AddRowValues(p.Name, s, d, h)
	}
	t.AddRowValues("Average", stats.Mean(st), stats.Mean(dy), stats.Mean(ht))
	return []*stats.Table{t}, nil
}
