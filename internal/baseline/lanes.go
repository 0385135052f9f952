package baseline

import (
	"math/bits"

	"desc/internal/bitutil"
)

// segLanes is the lane layout of the segmented codecs' word kernels, for
// any segment width that divides 64 or is a multiple of it. A segment of
// up to 64 bits is one lane of a wire-state word of 64/segBits lanes; a
// wider segment is one 64-bit lane spanning segWords consecutive words,
// whose popcounts and zero tests sum over those words. The beat's words
// form groups of segWords words, and segment s sits in group s/lanes at
// lane s%lanes. Per-segment control levels are packed the same way: one
// word per group, a segment's level in the top bit of its lane, so
// LaneFill turns a set of levels into a data mask directly.
type segLanes struct {
	segBits  int
	laneBits int // lane width: min(segBits, 64)
	lanes    int // segments per group
	segWords int // words per group
	msb      uint64
	// valid is each group's lane-MSB mask of segments that exist: only
	// the last group of a bus that is not a whole number of words has
	// padding lanes.
	valid []uint64
}

func newSegLanes(wires, segBits int) segLanes {
	g := segLanes{segBits: segBits, laneBits: min(segBits, 64), segWords: max(segBits/64, 1)}
	g.lanes = 64 / g.laneBits
	g.msb = bitutil.LaneMSB(g.laneBits)
	segs := wires / segBits
	for s := 0; s < segs; s += g.lanes {
		v := g.msb
		if n := segs - s; n < g.lanes {
			v &= 1<<uint(n*g.laneBits) - 1
		}
		g.valid = append(g.valid, v)
	}
	return g
}

// zeroLanes returns the lane-MSB mask of the valid all-zero segments of
// data, the words of lane group grp.
//
//desclint:hotpath runs once per lane group per beat
func (g *segLanes) zeroLanes(grp int, data []uint64) uint64 {
	if g.segWords == 1 {
		return bitutil.LaneZeroMask(data[0], g.msb) & g.valid[grp]
	}
	for _, d := range data {
		if d != 0 {
			return 0
		}
	}
	return g.valid[grp]
}

// distances returns the per-lane Hamming distances between data and state,
// the words of one lane group; a segment wider than a word sums its
// words' popcounts into its single lane.
//
//desclint:hotpath runs once per lane group per beat
func (g *segLanes) distances(data, state []uint64) uint64 {
	if g.segWords == 1 {
		return bitutil.LanePopcounts(data[0]^state[0], g.laneBits)
	}
	var hd uint64
	for j, d := range data {
		hd += uint64(bits.OnesCount64(d ^ state[j]))
	}
	return hd
}

// atLeast returns the lane-MSB mask of the lanes of hd, per-lane Hamming
// distances from distances, that are at least c.
//
//desclint:hotpath runs a few times per lane group per beat
func (g *segLanes) atLeast(hd uint64, c int) uint64 {
	switch {
	case c <= 0:
		return g.msb
	case c > g.segBits:
		return 0
	case g.laneBits >= 4:
		// A distance of at most k < 2^(k-1) leaves each lane's top bit
		// free: (hd | top) - c keeps the top bit iff hd >= c, and no
		// borrow crosses lanes.
		return ((hd | g.msb) - uint64(c)*(g.msb>>uint(g.laneBits-1))) & g.msb
	case c == 1:
		return g.msb &^ bitutil.LaneZeroMask(hd, g.msb)
	default: // 2-bit lanes and c == 2: a distance of 2 is the top bit
		return hd & g.msb
	}
}
