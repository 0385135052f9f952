// Package fpf implements the optimal memoryless bus encoding of Chee &
// Colbourn ("Optimal Memoryless Encoding for Low Power Off-Chip Data
// Buses", arXiv:0712.2640) as the registered scheme "fpf" (fixed-pattern
// form).
//
// The data wires are divided into segments of k bits, each widened by one
// spare wire; every k-bit data word maps through the enumerative codebook
// of internal/schemes/lowweight onto a fixed (k+1)-bit pattern of weight
// at most k/2, and the segment's wires are driven to that pattern. The
// code is memoryless — the pattern depends only on the current word, no
// encoder state survives between transfers — so a transfer's flip count
// is the Hamming distance between consecutive codewords on the physical
// wires, never more than k+1 but, because the codebook concentrates
// probability mass on low-weight patterns, far lower on real traffic
// (all-zero data idles the segment completely).
//
// Flip accounting follows the repository convention: data-wire
// transitions count as FlipCount.Data, spare-wire transitions as
// FlipCount.Control. The link is lowweight.Link, the segment kernel
// fpf and lwc share, with drive signaling.
package fpf

import "desc/internal/schemes/lowweight"

func init() { lowweight.Register("fpf", "Fixed-Pattern Memoryless", false) }

// New builds an fpf link: blockBits transferred over dataWires data wires
// in segBits-bit segments, each with one spare codeword wire.
func New(blockBits, dataWires, segBits int) (*lowweight.Link, error) {
	return lowweight.NewLink("fpf", false, blockBits, dataWires, segBits)
}
