package exp

import (
	"context"

	"desc/internal/link"
	"desc/internal/stats"
)

func init() {
	registerSim(Experiment{
		ID: "ext-zoo",
		Title: "Table Z1 (extension): the scheme zoo — every registered " +
			"codec across its geometry axes",
		Run: runZoo,
	})
}

// zooChunks and zooSegments are the off-design geometries the zoo
// explores on schemes whose traits declare the corresponding axis. The
// design point itself always runs, so sweeps list alternatives only.
var (
	zooChunks   = []int{2, 8}
	zooSegments = []int{4, 16, 32}
)

// zooSpecs enumerates the sweep from the registry alone: every
// registered scheme at its design point and — outside Quick mode —
// across the geometry axes its traits declare. A newly registered codec
// appears in the zoo with zero experiment-layer edits; that multiplier
// is the point of the descriptor registry.
func zooSpecs(opt Options) []SystemSpec {
	var specs []SystemSpec
	for _, d := range link.Descriptors() {
		base := designSpec(d.Name)
		specs = append(specs, base)
		if opt.Quick {
			continue
		}
		if d.Traits.UsesChunkBits {
			for _, c := range zooChunks {
				if c != base.ChunkBits {
					s := base
					s.ChunkBits = c
					specs = append(specs, s)
				}
			}
		}
		if d.Traits.UsesSegmentBits {
			for _, seg := range zooSegments {
				if seg != base.SegmentBits {
					s := base
					s.SegmentBits = seg
					specs = append(specs, s)
				}
			}
		}
	}
	return specs
}

// runZoo reports every configuration's geomean L2 energy normalized to
// the binary baseline, one row per (scheme, geometry).
func runZoo(ctx context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	profiles := opt.sweepBenchmarks()
	t := stats.NewTable("Scheme zoo: L2 energy by registered scheme and geometry (normalized to binary)",
		"Scheme", "Configuration", "L2 energy")
	for _, spec := range zooSpecs(opt) {
		geo, err := sweepPoint(ctx, r, profiles, spec, l2Energy)
		if err != nil {
			return nil, err
		}
		t.AddRow(schemeLabel(spec), spec.String(), stats.Cell(geo[0]))
	}
	return []*stats.Table{t}, nil
}
