package exp

import (
	"context"
	"fmt"

	"desc/internal/stats"
)

func init() {
	registerSim(Experiment{
		ID:    "fig23",
		Title: "Figure 23: S-NUCA-1 execution time with zero-skipped DESC",
		Run:   runFig23,
	})
	registerSim(Experiment{
		ID:    "fig24",
		Title: "Figure 24: S-NUCA-1 L2 energy with zero-skipped DESC",
		Run:   runFig24,
	})
	registerSim(Experiment{
		ID:    "fig28",
		Title: "Figure 28: execution time under SECDED ECC",
		Run:   runFig28,
	})
	registerSim(Experiment{
		ID:    "fig29",
		Title: "Figure 29: L2 energy under SECDED ECC",
		Run:   runFig29,
	})
}

// nucaSpecs returns the S-NUCA-1 pair of Section 5.5: 128 banks with
// 128-bit ports, statically routed private channels.
func nucaSpecs() (binary, desc SystemSpec) {
	binary = SystemSpec{Scheme: "binary", DataWires: 128, Banks: 128, NUCA: true}
	desc = SystemSpec{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4, Banks: 128, NUCA: true}
	return
}

// runFig23 reports DESC's execution time on S-NUCA-1 normalized to binary
// S-NUCA-1 (paper: 1% penalty).
func runFig23(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	bSpec, dSpec := nucaSpecs()
	t := stats.NewTable("Figure 23: DESC + S-NUCA-1 execution time (normalized to S-NUCA-1)",
		"Benchmark", "Normalized time")
	var vals []float64
	for _, p := range r.Options().benchmarks() {
		b, err := r.RunOne(ctx, bSpec, p)
		if err != nil {
			return nil, err
		}
		d, err := r.RunOne(ctx, dSpec, p)
		if err != nil {
			return nil, err
		}
		v := ratio(float64(d.Cycles), float64(b.Cycles))
		vals = append(vals, v)
		t.AddRowValues(p.Name, v)
	}
	geo, err := stats.GeoMeanStrict(vals)
	if err != nil {
		return nil, fmt.Errorf("exp: fig23: %w", err)
	}
	t.AddRowValues("Geomean", geo)
	return []*stats.Table{t}, nil
}

// runFig24 reports DESC's L2 energy on S-NUCA-1 normalized to binary
// S-NUCA-1 (paper: 1.62x improvement).
func runFig24(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	bSpec, dSpec := nucaSpecs()
	t := stats.NewTable("Figure 24: DESC + S-NUCA-1 L2 energy (normalized to S-NUCA-1)",
		"Benchmark", "Normalized energy")
	var vals []float64
	for _, p := range r.Options().benchmarks() {
		b, err := r.RunOne(ctx, bSpec, p)
		if err != nil {
			return nil, err
		}
		d, err := r.RunOne(ctx, dSpec, p)
		if err != nil {
			return nil, err
		}
		v := ratio(d.Breakdown.L2J(), b.Breakdown.L2J())
		vals = append(vals, v)
		t.AddRowValues(p.Name, v)
	}
	geo, err := stats.GeoMeanStrict(vals)
	if err != nil {
		return nil, fmt.Errorf("exp: fig24: %w", err)
	}
	t.AddRowValues("Geomean", geo)
	return []*stats.Table{t}, nil
}

// eccSpecs returns the four W-S configurations of Figures 28/29, where W
// is the data width and S the SECDED segment size.
func eccSpecs() []struct {
	label string
	spec  SystemSpec
} {
	return []struct {
		label string
		spec  SystemSpec
	}{
		{"64-64 Binary", SystemSpec{Scheme: "binary", DataWires: 64, ECCSegment: 64}},
		{"128-128 Binary", SystemSpec{Scheme: "binary", DataWires: 128, ECCSegment: 128}},
		{"128-64 DESC", SystemSpec{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4, ECCSegment: 64}},
		{"128-128 DESC", SystemSpec{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4, ECCSegment: 128}},
	}
}

// eccTable renders one metric across the ECC configurations, normalized to
// the 64-64 binary baseline per benchmark.
func eccTable(ctx context.Context, r *Runner, title string, metric func(RunResult) float64) (*stats.Table, error) {
	specs := eccSpecs()
	cols := []string{"Benchmark"}
	for _, s := range specs {
		cols = append(cols, s.label)
	}
	t := stats.NewTable(title, cols...)
	geos := make([][]float64, len(specs))
	for _, p := range r.Options().benchmarks() {
		base, err := r.RunOne(ctx, specs[0].spec, p)
		if err != nil {
			return nil, err
		}
		row := []string{p.Name}
		for i, s := range specs {
			res, err := r.RunOne(ctx, s.spec, p)
			if err != nil {
				return nil, err
			}
			v := ratio(metric(res), metric(base))
			geos[i] = append(geos[i], v)
			row = append(row, fmt.Sprintf("%.4g", v))
		}
		t.AddRow(row...)
	}
	geo := []string{"Geomean"}
	for i := range specs {
		g, err := stats.GeoMeanStrict(geos[i])
		if err != nil {
			return nil, fmt.Errorf("exp: ecc table %s: %w", specs[i].label, err)
		}
		geo = append(geo, fmt.Sprintf("%.4g", g))
	}
	t.AddRow(geo...)
	return t, nil
}

// runFig28 reports execution time under SECDED (paper: zero-skipped DESC
// stays within ~1% of binary).
func runFig28(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	t, err := eccTable(ctx, r,
		"Figure 28: execution time with SECDED ECC (normalized to 64-64 binary)",
		func(res RunResult) float64 { return float64(res.Cycles) })
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// runFig29 reports L2 energy under SECDED (paper: DESC improves energy by
// 1.82x with the (72,64) code and 1.92x with (137,128)).
func runFig29(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	t, err := eccTable(ctx, r,
		"Figure 29: L2 energy with SECDED ECC (normalized to 64-64 binary)",
		func(res RunResult) float64 { return res.Breakdown.L2J() })
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}
