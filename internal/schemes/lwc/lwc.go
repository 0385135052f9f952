// Package lwc implements the practical low-weight bus code of Valentini &
// Chiani ("An Implementation of the Optimal Scheme for Energy Efficient
// Bus Encoding", arXiv:2303.06409; "Practical Low-Weight Codes for
// Energy-Efficient Bus Encoding", arXiv:2606.14203) as the registered
// scheme "lwc".
//
// Like fpf, the data wires are divided into k-bit segments widened by one
// spare wire, and each k-bit word maps through the enumerative codebook
// of internal/schemes/lowweight onto a (k+1)-bit codeword of weight at
// most k/2. The difference is transition signaling: instead of driving
// the wires to the codeword, the transmitter XORs the codeword onto the
// previous wire state, so every transfer flips exactly the codeword's
// weight — a hard per-segment bound of k/2 transitions regardless of
// data history, the low-weight-code guarantee the papers optimize. The
// receiver recovers the codeword as the difference between consecutive
// wire states (it tracks the bus it samples anyway) and ranks it back to
// data.
//
// Flip accounting follows the repository convention: data-wire
// transitions count as FlipCount.Data, spare-wire transitions as
// FlipCount.Control. The link is lowweight.Link, the segment kernel
// fpf and lwc share, with transition signaling.
package lwc

import "desc/internal/schemes/lowweight"

func init() { lowweight.Register("lwc", "Practical Low-Weight Code", true) }

// New builds an lwc link: blockBits transferred over dataWires data wires
// in segBits-bit segments, each with one spare codeword wire.
func New(blockBits, dataWires, segBits int) (*lowweight.Link, error) {
	return lowweight.NewLink("lwc", true, blockBits, dataWires, segBits)
}
