package exp

import (
	"context"
	"fmt"
	"math/rand"

	"desc/internal/htree"
	"desc/internal/link"
	"desc/internal/stats"
	"desc/internal/wiremodel"
	"desc/internal/workload"
)

func init() {
	register(Experiment{
		ID: "ext02",
		Title: "Table E2 (extension): toggle-regenerator trees vs " +
			"broadcast H-trees (Section 3.2's shared-wire mechanism)",
		Run: runExt02,
	})
}

// runExt02 drives real benchmark traffic through a segment-accurate H-tree
// (internal/htree) twice conceptually: once with the toggle regenerators
// of Figure 8c confining each transfer's toggles to the active branch, and
// once as a plain broadcast tree. It also verifies the flat path-length
// accounting the cache model uses. Each scheme's toggles come from its
// actual link, so the comparison reflects the schemes' real activity.
func runExt02(_ context.Context, r *Runner) ([]*stats.Table, error) {
	opt := r.Options()
	blocks := 3000
	if opt.Quick {
		blocks = 600
	}
	t := stats.NewTable("Extension: H-tree energy with and without toggle regenerators",
		"Scheme", "Regenerated (J)", "Broadcast (J)", "Broadcast penalty", "Flat-model error")

	prof, _ := workload.ByName("Art")
	gen := workload.NewGenerator(prof, opt.Seed)

	for _, schemeSpec := range []struct {
		name  string
		wires int
	}{
		{"binary", 64},
		{"desc-zero", 128},
	} {
		l, err := link.New(link.Spec{
			Scheme: schemeSpec.name, BlockBits: 512,
			DataWires: schemeSpec.wires, ChunkBits: 4, SegmentBits: 8,
		})
		if err != nil {
			return nil, err
		}
		// 16 mats per the Figure 7 organization; the root segment is
		// half the modeled cache span.
		tr, err := htree.New(htree.Config{
			Leaves: 16, Wires: schemeSpec.wires + 2, RootLengthMM: 3.0,
			Node: wiremodel.Node22, Class: wiremodel.LSTP,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		words := (schemeSpec.wires + 2 + 63) / 64
		mask := make([]uint64, words)
		for i := 0; i < blocks; i++ {
			cost := l.Send(gen.BlockData(uint64(i) * 4096))
			// Spread the transfer's flips across the mask; the
			// tree only needs the flip count and destination, so
			// an even spread suffices.
			for w := range mask {
				mask[w] = 0
			}
			remaining := int(cost.Flips.Total())
			for b := 0; remaining > 0 && b < words*64; b++ {
				if rng.Intn(2) == 0 {
					mask[b>>6] |= 1 << (uint(b) & 63)
					remaining--
				}
			}
			tr.Transfer(rng.Intn(16), mask)
		}
		reg, bc := tr.EnergyJ(), tr.BroadcastEnergyJ()
		flatErr := (tr.SimplifiedEnergyJ() - reg) / reg
		t.AddRow(schemeSpec.name,
			stats.Cell(reg),
			stats.Cell(bc),
			fmt.Sprintf("%.2fx", bc/reg),
			fmt.Sprintf("%.2g%%", 100*flatErr))
	}
	return []*stats.Table{t}, nil
}
