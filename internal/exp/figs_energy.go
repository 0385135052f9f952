package exp

import (
	"context"

	"desc/internal/link"
	"desc/internal/stats"
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
	profiles := r.Options().sweepBenchmarks()
	t := stats.NewTable("Figure 15: L2 energy vs segment size (normalized to binary)",
		"Scheme", "64-bit", "32-bit", "16-bit", "8-bit", "4-bit")
	for _, scheme := range fig15Schemes() {
		var geos []float64
		for _, seg := range fig15Segments {
			spec := SystemSpec{Scheme: scheme, DataWires: 64, SegmentBits: seg}
			g, err := sweepPoint(ctx, r, profiles, spec, l2Energy)
			if err != nil {
				return nil, err
			}
			geos = append(geos, g[0])
		}
		t.AddRowValues(schemeLabel(SystemSpec{Scheme: scheme}), geos...)
	}
	return []*stats.Table{t}, nil
}

// runFig16 is the headline result: per-benchmark L2 energy for all eight
// techniques, normalized to conventional binary. The paper reports 10%,
// 19%, 20%, 11% savings for DZC/BIC/ZS-BIC/basic DESC and a 1.81x
// reduction (0.55 normalized) for zero-skipped DESC.
func runFig16(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	schemes := allSchemes()
	cols := []string{"Benchmark"}
	for _, s := range schemes {
		cols = append(cols, schemeLabel(s))
	}
	return benchTable(ctx, r, "Figure 16: L2 energy normalized to conventional binary", cols,
		r.Options().benchmarks(), BinaryBase(), schemes, l2Energy)
}

// runFig18 splits each technique's L2 energy into static and dynamic
// components, normalized to the conventional binary total (paper:
// zero-skipped DESC halves dynamic energy at a 3% static overhead).
func runFig18(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	profiles := r.Options().benchmarks()
	t := stats.NewTable("Figure 18: L2 energy components normalized to binary total",
		"Scheme", "Static", "Dynamic", "Total")
	static := func(res, base RunResult) float64 { return ratio(res.Breakdown.L2StaticJ, base.Breakdown.L2J()) }
	dynamic := func(res, base RunResult) float64 { return ratio(res.Breakdown.L2DynJ(), base.Breakdown.L2J()) }
	for _, s := range allSchemes() {
		vals, err := normalized(ctx, r, profiles, BinaryBase(), []SystemSpec{s}, static, dynamic)
		if err != nil {
			return nil, err
		}
		ms, md := stats.Mean(vals[0][0]), stats.Mean(vals[0][1])
		t.AddRowValues(schemeLabel(s), ms, md, ms+md)
	}
	return []*stats.Table{t}, nil
}

// runFig19 reports whole-processor energy with zero-skipped DESC,
// normalized to binary (paper: 7% average saving), split into the L2 and
// everything else.
func runFig19(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	profiles := r.Options().benchmarks()
	t := stats.NewTable("Figure 19: processor energy with zero-skipped DESC (normalized to binary)",
		"Benchmark", "L2", "Other units", "Total")
	l2 := func(res, base RunResult) float64 {
		return ratio(res.Breakdown.L2J(), base.Breakdown.ProcessorJ())
	}
	other := func(res, base RunResult) float64 {
		return ratio(res.Breakdown.ProcessorJ()-res.Breakdown.L2J(), base.Breakdown.ProcessorJ())
	}
	vals, err := normalized(ctx, r, profiles, BinaryBase(), []SystemSpec{DESCZero()}, l2, other)
	if err != nil {
		return nil, err
	}
	totals := make([]float64, len(profiles))
	for k, p := range profiles {
		totals[k] = vals[0][0][k] + vals[0][1][k]
		t.AddRowValues(p.Name, vals[0][0][k], vals[0][1][k], totals[k])
	}
	geo, err := geomean(DESCZero(), profiles, totals)
	if err != nil {
		return nil, err
	}
	t.AddRowValues("Geomean", 0, 0, geo)
	return []*stats.Table{t}, nil
}
