package exp

import (
	"context"

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
	return benchTable(ctx, r, "Figure 23: DESC + S-NUCA-1 execution time (normalized to S-NUCA-1)",
		[]string{"Benchmark", "Normalized time"}, r.Options().benchmarks(), bSpec, []SystemSpec{dSpec}, execTime)
}

// runFig24 reports DESC's L2 energy on S-NUCA-1 normalized to binary
// S-NUCA-1 (paper: 1.62x improvement).
func runFig24(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	bSpec, dSpec := nucaSpecs()
	return benchTable(ctx, r, "Figure 24: DESC + S-NUCA-1 L2 energy (normalized to S-NUCA-1)",
		[]string{"Benchmark", "Normalized energy"}, r.Options().benchmarks(), bSpec, []SystemSpec{dSpec}, l2Energy)
}

// eccTable renders norm across the four W-S configurations of Figures
// 28/29, where W is the data width and S the SECDED segment size,
// normalized to the 64-64 binary baseline per benchmark.
func eccTable(ctx context.Context, r *Runner, title string, norm normalizer) ([]*stats.Table, error) {
	specs := []SystemSpec{
		{Scheme: "binary", DataWires: 64, ECCSegment: 64},
		{Scheme: "binary", DataWires: 128, ECCSegment: 128},
		{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4, ECCSegment: 64},
		{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4, ECCSegment: 128},
	}
	cols := []string{"Benchmark", "64-64 Binary", "128-128 Binary", "128-64 DESC", "128-128 DESC"}
	return benchTable(ctx, r, title, cols, r.Options().benchmarks(), specs[0], specs, norm)
}

// runFig28 reports execution time under SECDED (paper: zero-skipped DESC
// stays within ~1% of binary).
func runFig28(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	return eccTable(ctx, r, "Figure 28: execution time with SECDED ECC (normalized to 64-64 binary)", execTime)
}

// runFig29 reports L2 energy under SECDED (paper: DESC improves energy by
// 1.82x with the (72,64) code and 1.92x with (137,128)).
func runFig29(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	return eccTable(ctx, r, "Figure 29: L2 energy with SECDED ECC (normalized to 64-64 binary)", l2Energy)
}
