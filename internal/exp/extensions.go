package exp

import (
	"context"
	"fmt"

	"desc/internal/stats"
)

func init() {
	registerSim(Experiment{
		ID: "ext01",
		Title: "Table E1 (extension): adaptive skip-value detection " +
			"(the runtime technique considered and rejected in Section 3.3)",
		Run: runExt01,
	})
}

// runExt01 implements the adaptive frequent-value detector the paper
// considered: per-wire saturating counters track the most frequent chunk
// value and skip it. The paper rejected it because non-zero values are
// distributed too uniformly for the extra hardware to pay off; this
// experiment reproduces that comparison against zero and last-value
// skipping.
func runExt01(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	specs := []SystemSpec{
		{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4},
		{Scheme: "desc-last", DataWires: 128, ChunkBits: 4},
		{Scheme: "desc-adaptive", DataWires: 128, ChunkBits: 4},
	}
	t := stats.NewTable("Extension: skip-policy comparison (L2 energy normalized to binary)",
		"Benchmark", "Zero Skipped", "Last Value Skipped", "Adaptive Skipped")
	geos := make([][]float64, len(specs))
	for _, p := range r.Options().benchmarks() {
		row := []string{p.Name}
		for i, s := range specs {
			v, err := l2Norm(ctx, r, s, p)
			if err != nil {
				return nil, err
			}
			geos[i] = append(geos[i], v)
			row = append(row, formatG(v))
		}
		t.AddRow(row...)
	}
	geo := []string{"Geomean"}
	for i, s := range specs {
		g, err := stats.GeoMeanStrict(geos[i])
		if err != nil {
			return nil, fmt.Errorf("exp: ext01 %s: %w", s.Scheme, err)
		}
		geo = append(geo, formatG(g))
	}
	t.AddRow(geo...)
	return []*stats.Table{t}, nil
}

// formatG renders a float the way AddRowValues does.
func formatG(v float64) string {
	return fmt.Sprintf("%.4g", v)
}
