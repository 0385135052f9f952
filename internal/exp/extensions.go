package exp

import (
	"context"

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
	return benchTable(ctx, r, "Extension: skip-policy comparison (L2 energy normalized to binary)",
		[]string{"Benchmark", "Zero Skipped", "Last Value Skipped", "Adaptive Skipped"},
		r.Options().benchmarks(), BinaryBase(), specs, l2Energy)
}
