package exp

import (
	"context"

	"desc/internal/stats"
)

func init() {
	registerSim(Experiment{
		ID: "ext03",
		Title: "Table E3 (extension): next-line L2 prefetching under " +
			"binary and DESC transfer",
		Run: runExt03,
	})
}

// runExt03 studies an interaction the paper leaves open: prefetching adds
// H-tree fill traffic, so its energy cost depends on the transfer scheme.
// Under conventional binary every speculative fill pays full-price wire
// energy; under zero-skipped DESC the same fills are cheap, so DESC keeps
// more of the prefetcher's performance win per joule.
func runExt03(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Extension: next-line prefetching x transfer scheme (normalized to binary, no prefetch)",
		"Configuration", "Execution time", "L2 energy", "Energy-delay")
	prefetch := func(s SystemSpec) SystemSpec { s.Prefetch = true; return s }
	specs := []SystemSpec{BinaryBase(), prefetch(BinaryBase()), DESCZero(), prefetch(DESCZero())}
	labels := []string{"Binary", "Binary + prefetch", "DESC-zero", "DESC-zero + prefetch"}
	profiles := r.Options().benchmarks()
	for i, spec := range specs {
		geo, err := sweepPoint(ctx, r, profiles, spec, execTime, l2Energy)
		if err != nil {
			return nil, err
		}
		t.AddRowValues(labels[i], geo[0], geo[1], geo[0]*geo[1])
	}
	return []*stats.Table{t}, nil
}
