// Package htree models the physical H-tree interconnect of Figure 7 at
// segment granularity: a balanced binary tree of wire segments from the
// cache controller down to the mats, with a toggle regenerator (Figure 8c)
// at every branch point of the shared vertical tree.
//
// Toggle signaling is differential in time, so a shared segment cannot
// simply mirror a downstream level: the regenerator remembers the
// segment's own state and re-toggles it whenever the *selected* branch
// toggles (Section 3.2). Consequently a transfer's flips propagate only
// along the controller-to-active-mat path, and every level of that path
// contributes its own segment length to the energy.
//
// The package serves two purposes:
//
//   - it validates the cache model's simplification (charging each flip
//     for the full controller-to-mat path length) against a
//     segment-accurate accounting — experiment ext02 reports the error;
//   - it provides the per-level geometry (segment lengths, wire counts)
//     used to reason about width and capacity sweeps.
package htree

import (
	"fmt"
	"math"

	"desc/internal/wiremodel"
)

// Config describes the tree.
type Config struct {
	// Leaves is the number of leaf endpoints (mats); must be a power of
	// two.
	Leaves int
	// Wires is the number of signal wires routed along every segment.
	Wires int
	// RootLengthMM is the length of the segment leaving the controller;
	// each level down halves the span, as in a standard H-tree layout.
	RootLengthMM float64
	// Node and Class parameterize the wire energy model.
	Node  wiremodel.Node
	Class wiremodel.DeviceClass
}

// Tree is a balanced binary H-tree with per-segment wire state. Node i has
// children 2i+1 and 2i+2 (heap order); leaves are the last Leaves nodes.
type Tree struct {
	cfg    Config
	levels int

	// state[n][w] is the level of wire w on the segment feeding node n.
	state [][]uint64 // bitset words per node
	words int

	// flipsPerLevel[l] counts transitions on all segments at level l
	// (root = level 0).
	flipsPerLevel []uint64
	// energyJ accumulates segment-accurate flip energy.
	energyJ float64
	// levelEnergy[l] is the per-flip energy of one level-l segment.
	levelEnergy []float64
}

// New builds the tree.
func New(cfg Config) (*Tree, error) {
	if cfg.Leaves < 1 || cfg.Leaves&(cfg.Leaves-1) != 0 {
		return nil, fmt.Errorf("htree: %d leaves is not a power of two", cfg.Leaves)
	}
	if cfg.Wires < 1 {
		return nil, fmt.Errorf("htree: %d wires", cfg.Wires)
	}
	if cfg.RootLengthMM <= 0 {
		return nil, fmt.Errorf("htree: root length %g", cfg.RootLengthMM)
	}
	if cfg.Node.Name == "" {
		cfg.Node = wiremodel.Node22
	}
	levels := 1
	for 1<<uint(levels-1) < cfg.Leaves {
		levels++
	}
	nodes := 2*cfg.Leaves - 1
	t := &Tree{
		cfg:           cfg,
		levels:        levels,
		words:         (cfg.Wires + 63) / 64,
		flipsPerLevel: make([]uint64, levels),
		levelEnergy:   make([]float64, levels),
	}
	t.state = make([][]uint64, nodes)
	for i := range t.state {
		t.state[i] = make([]uint64, t.words)
	}
	for l := 0; l < levels; l++ {
		segLen := cfg.RootLengthMM / math.Pow(2, float64(l))
		w := wiremodel.NewWire(cfg.Node, cfg.Class, segLen)
		t.levelEnergy[l] = w.EnergyPerFlipJ()
	}
	return t, nil
}

// Levels returns the tree depth (root segment = level 0).
func (t *Tree) Levels() int { return t.levels }

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return t.cfg.Leaves }

// SegmentLengthMM returns the length of one segment at the given level.
func (t *Tree) SegmentLengthMM(level int) float64 {
	return t.cfg.RootLengthMM / math.Pow(2, float64(level))
}

// PathLengthMM returns the total controller-to-leaf wire length — the
// quantity the simplified cache model charges per flip.
func (t *Tree) PathLengthMM() float64 {
	total := 0.0
	for l := 0; l < t.levels; l++ {
		total += t.SegmentLengthMM(l)
	}
	return total
}

// leafNode returns the tree node index of leaf i.
func (t *Tree) leafNode(leaf int) int {
	return t.cfg.Leaves - 1 + leaf
}

// Transfer propagates a set of wire toggles from the controller to the
// given leaf (or from the leaf up — toggle signaling is symmetric): every
// segment on the path re-toggles the flipped wires through its
// regenerator, while all other branches stay silent. toggles is a bitmask
// of flipped wires (words of 64), and the method returns the
// segment-accurate energy of the transfer.
func (t *Tree) Transfer(leaf int, toggles []uint64) float64 {
	if leaf < 0 || leaf >= t.cfg.Leaves {
		panic(fmt.Sprintf("htree: leaf %d of %d", leaf, t.cfg.Leaves))
	}
	if len(toggles) != t.words {
		panic(fmt.Sprintf("htree: toggle mask of %d words, want %d", len(toggles), t.words))
	}
	nFlips := 0
	for _, w := range toggles {
		nFlips += onesCount(w)
	}
	if nFlips == 0 {
		return 0
	}
	// Walk from the leaf to the root; the path node at depth d feeds a
	// level-d segment.
	energy := 0.0
	node := t.leafNode(leaf)
	level := t.levels - 1
	for {
		st := t.state[node]
		for w := range st {
			st[w] ^= toggles[w]
		}
		t.flipsPerLevel[level] += uint64(nFlips)
		energy += float64(nFlips) * t.levelEnergy[level]
		if node == 0 {
			break
		}
		node = (node - 1) / 2
		level--
	}
	t.energyJ += energy
	return energy
}

// State returns the level of wire w on the segment feeding the given leaf
// (for tests: the leaf segment's state must track the XOR of all toggles
// sent to that leaf).
func (t *Tree) State(leaf, w int) bool {
	st := t.state[t.leafNode(leaf)]
	return st[w>>6]&(1<<(uint(w)&63)) != 0
}

// EnergyJ returns the accumulated segment-accurate energy.
func (t *Tree) EnergyJ() float64 { return t.energyJ }

// SimplifiedEnergyJ returns what the flat model (flips x full path
// length) would have charged for the same activity: total root-level flips
// times the full path's per-flip energy. Since every transfer touches each
// level exactly once and energy is linear in wire length, this equals the
// segment-accurate EnergyJ — the invariant that justifies the cache
// model's flat accounting.
func (t *Tree) SimplifiedEnergyJ() float64 {
	perFlip := wiremodel.NewWire(t.cfg.Node, t.cfg.Class, t.PathLengthMM()).EnergyPerFlipJ()
	return float64(t.flipsPerLevel[0]) * perFlip
}

// BroadcastEnergyJ returns what the same activity would cost on a tree
// *without* toggle regenerators, where a toggle entering the shared
// vertical tree propagates to every segment instead of only the active
// branch: each root flip then costs the whole tree's wire length. The
// ratio against EnergyJ quantifies why Section 3.2 adds the regenerator
// circuit.
func (t *Tree) BroadcastEnergyJ() float64 {
	perFlipWholeTree := 0.0
	for l := 0; l < t.levels; l++ {
		perFlipWholeTree += float64(uint64(1)<<uint(l)) * t.levelEnergy[l]
	}
	return float64(t.flipsPerLevel[0]) * perFlipWholeTree
}

// onesCount is a tiny local popcount to avoid importing math/bits in two
// places.
func onesCount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
