package exp

import (
	"context"
	"fmt"

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

// ext03Specs are the four prefetch/scheme combinations; the first doubles
// as the normalization baseline.
func ext03Specs() []struct {
	label string
	spec  SystemSpec
} {
	return []struct {
		label string
		spec  SystemSpec
	}{
		{"Binary", BinaryBase()},
		{"Binary + prefetch", func() SystemSpec { s := BinaryBase(); s.Prefetch = true; return s }()},
		{"DESC-zero", DESCZero()},
		{"DESC-zero + prefetch", func() SystemSpec { s := DESCZero(); s.Prefetch = true; return s }()},
	}
}

// runExt03 studies an interaction the paper leaves open: prefetching adds
// H-tree fill traffic, so its energy cost depends on the transfer scheme.
// Under conventional binary every speculative fill pays full-price wire
// energy; under zero-skipped DESC the same fills are cheap, so DESC keeps
// more of the prefetcher's performance win per joule.
func runExt03(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	t := stats.NewTable("Extension: next-line prefetching x transfer scheme (normalized to binary, no prefetch)",
		"Configuration", "Execution time", "L2 energy", "Energy-delay")
	for _, sp := range ext03Specs() {
		var times, l2s []float64
		for _, p := range r.Options().benchmarks() {
			base, err := r.RunOne(ctx, BinaryBase(), p)
			if err != nil {
				return nil, err
			}
			res, err := r.RunOne(ctx, sp.spec, p)
			if err != nil {
				return nil, err
			}
			times = append(times, ratio(float64(res.Cycles), float64(base.Cycles)))
			l2s = append(l2s, ratio(res.Breakdown.L2J(), base.Breakdown.L2J()))
		}
		tm, err := stats.GeoMeanStrict(times)
		if err != nil {
			return nil, fmt.Errorf("exp: ext03 %s time: %w", sp.label, err)
		}
		l2, err := stats.GeoMeanStrict(l2s)
		if err != nil {
			return nil, fmt.Errorf("exp: ext03 %s energy: %w", sp.label, err)
		}
		t.AddRow(sp.label,
			fmt.Sprintf("%.4g", tm),
			fmt.Sprintf("%.4g", l2),
			fmt.Sprintf("%.4g", tm*l2))
	}
	return []*stats.Table{t}, nil
}
