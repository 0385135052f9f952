package exp

import (
	"context"
	"fmt"

	"desc/internal/link"
	"desc/internal/stats"
	"desc/internal/workload"
)

func init() {
	registerSim(Experiment{
		ID:    "fig15",
		Title: "Figure 15: baseline L2 energy vs data segment size",
		Run:   runFig15,
	})
	registerSim(Experiment{
		ID:    "fig16",
		Title: "Figure 16: L2 cache energy by data transfer technique",
		Run:   runFig16,
	})
	registerSim(Experiment{
		ID:    "fig18",
		Title: "Figure 18: static and dynamic L2 energy by technique",
		Run:   runFig18,
	})
	registerSim(Experiment{
		ID:    "fig19",
		Title: "Figure 19: processor energy with zero-skipped DESC",
		Run:   runFig19,
	})
}

// allSchemes is the Figure 16 comparison set: the conventional baseline,
// the prior-work encodings at their selected segment size (Figure 15),
// and the three DESC variants the paper plots. The roster is the paper's
// (the figure compares what the figure compares); each scheme's geometry
// comes from its registered design-point traits, and the scheme zoo
// experiment (ext-zoo) covers everything else the registry holds.
func allSchemes() []SystemSpec {
	names := []string{
		"binary", "dzc", "bic", "bic-zs", "bic-ezs",
		"desc-basic", "desc-zero", "desc-last",
	}
	specs := make([]SystemSpec, 0, len(names))
	for _, n := range names {
		specs = append(specs, designSpec(n))
	}
	return specs
}

// designSpec returns the scheme's paper design point from its registered
// traits. Unregistered names panic: figure rosters are static data, so a
// missing registration is a programming error, not a runtime condition.
func designSpec(name string) SystemSpec {
	d, ok := link.Lookup(name)
	if !ok {
		panic("exp: design spec for unregistered scheme " + name)
	}
	return SystemSpec{
		Scheme:      name,
		DataWires:   d.Traits.DesignWires,
		ChunkBits:   d.Traits.DesignChunkBits,
		SegmentBits: d.Traits.DesignSegmentBits,
	}
}

// schemeLabel names a spec as figure legends do, straight from the
// scheme's registered descriptor. Unregistered names fall back to the
// raw name so partially rendered tables stay legible.
func schemeLabel(s SystemSpec) string {
	if d, ok := link.Lookup(s.Scheme); ok {
		return d.Label
	}
	return s.Scheme
}

// l2Norm returns one (spec, benchmark) L2 energy normalized to the binary
// baseline on the same benchmark.
func l2Norm(ctx context.Context, r *Runner, spec SystemSpec, p workload.Profile) (float64, error) {
	base, err := r.RunOne(ctx, BinaryBase(), p)
	if err != nil {
		return 0, err
	}
	res, err := r.RunOne(ctx, spec, p)
	if err != nil {
		return 0, err
	}
	return ratio(res.Breakdown.L2J(), base.Breakdown.L2J()), nil
}

// fig15Schemes enumerates every registered scheme whose traits declare a
// segment-size axis — the paper's four prior-work encodings plus any
// segmented codec the zoo has since gained (fpf, lwc, ...). A newly
// registered segmented scheme joins the sweep with no experiment-layer
// edit.
func fig15Schemes() []string {
	var names []string
	for _, d := range link.Descriptors() {
		if d.Traits.UsesSegmentBits {
			names = append(names, d.Name)
		}
	}
	return names
}

// fig15Segments are the segment sizes the Figure 15 sweep explores.
var fig15Segments = []int{64, 32, 16, 8, 4}

// runFig15 sweeps the segment size of the four baseline encodings and
// reports geomean L2 energy normalized to binary. The paper picks each
// scheme's best configuration (starred) as its Figure 16 baseline.
func runFig15(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	t := stats.NewTable("Figure 15: L2 energy vs segment size (normalized to binary)",
		"Scheme", "64-bit", "32-bit", "16-bit", "8-bit", "4-bit")
	for _, scheme := range fig15Schemes() {
		row := []string{schemeLabel(SystemSpec{Scheme: scheme})}
		for _, seg := range fig15Segments {
			spec := SystemSpec{Scheme: scheme, DataWires: 64, SegmentBits: seg}
			_, _, geo, err := geoOver(opt.sweepBenchmarks(), func(p workload.Profile) (float64, error) {
				return l2Norm(ctx, r, spec, p)
			})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4g", geo))
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}, nil
}

// runFig16 is the headline result: per-benchmark L2 energy for all eight
// techniques, normalized to conventional binary. The paper reports 10%,
// 19%, 20%, 11% savings for DZC/BIC/ZS-BIC/basic DESC and a 1.81x
// reduction (0.55 normalized) for zero-skipped DESC.
func runFig16(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	schemes := allSchemes()
	cols := []string{"Benchmark"}
	for _, s := range schemes {
		cols = append(cols, schemeLabel(s))
	}
	t := stats.NewTable("Figure 16: L2 energy normalized to conventional binary", cols...)
	perScheme := make([][]float64, len(schemes))
	for _, p := range opt.benchmarks() {
		row := []string{p.Name}
		for i, s := range schemes {
			v, err := l2Norm(ctx, r, s, p)
			if err != nil {
				return nil, err
			}
			perScheme[i] = append(perScheme[i], v)
			row = append(row, fmt.Sprintf("%.4g", v))
		}
		t.AddRow(row...)
	}
	geo := []string{"Geomean"}
	for i := range schemes {
		g, err := stats.GeoMeanStrict(perScheme[i])
		if err != nil {
			return nil, fmt.Errorf("exp: fig16 %s: %w", schemes[i].Scheme, err)
		}
		geo = append(geo, fmt.Sprintf("%.4g", g))
	}
	t.AddRow(geo...)
	return []*stats.Table{t}, nil
}

// runFig18 splits each technique's L2 energy into static and dynamic
// components, normalized to the conventional binary total (paper:
// zero-skipped DESC halves dynamic energy at a 3% static overhead).
func runFig18(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	t := stats.NewTable("Figure 18: L2 energy components normalized to binary total",
		"Scheme", "Static", "Dynamic", "Total")
	for _, s := range allSchemes() {
		var st, dy []float64
		for _, p := range opt.benchmarks() {
			base, err := r.RunOne(ctx, BinaryBase(), p)
			if err != nil {
				return nil, err
			}
			res, err := r.RunOne(ctx, s, p)
			if err != nil {
				return nil, err
			}
			tot := base.Breakdown.L2J()
			st = append(st, ratio(res.Breakdown.L2StaticJ, tot))
			dy = append(dy, ratio(res.Breakdown.L2DynJ(), tot))
		}
		ms, md := stats.Mean(st), stats.Mean(dy)
		t.AddRowValues(schemeLabel(s), ms, md, ms+md)
	}
	return []*stats.Table{t}, nil
}

// runFig19 reports whole-processor energy with zero-skipped DESC,
// normalized to binary (paper: 7% average saving), split into the L2 and
// everything else.
func runFig19(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	t := stats.NewTable("Figure 19: processor energy with zero-skipped DESC (normalized to binary)",
		"Benchmark", "L2", "Other units", "Total")
	var totals []float64
	for _, p := range opt.benchmarks() {
		base, err := r.RunOne(ctx, BinaryBase(), p)
		if err != nil {
			return nil, err
		}
		res, err := r.RunOne(ctx, DESCZero(), p)
		if err != nil {
			return nil, err
		}
		den := base.Breakdown.ProcessorJ()
		l2 := ratio(res.Breakdown.L2J(), den)
		other := ratio(res.Breakdown.ProcessorJ()-res.Breakdown.L2J(), den)
		totals = append(totals, l2+other)
		t.AddRowValues(p.Name, l2, other, l2+other)
	}
	geo, err := stats.GeoMeanStrict(totals)
	if err != nil {
		return nil, fmt.Errorf("exp: fig19: %w", err)
	}
	t.AddRowValues("Geomean", 0, 0, geo)
	return []*stats.Table{t}, nil
}
