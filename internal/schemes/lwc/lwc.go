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
// FlipCount.Control.
package lwc

import (
	"fmt"
	"math/bits"

	"desc/internal/bitutil"
	"desc/internal/link"
	"desc/internal/schemes/fpf"
	"desc/internal/schemes/lowweight"
)

func init() {
	link.Register(link.Descriptor{
		Name:  "lwc",
		Label: "Practical Low-Weight Code",
		Factory: func(s link.Spec) (link.Link, error) {
			return New(s.BlockBits, s.DataWires, fpf.SegBits(s))
		},
		Traits: link.Traits{
			CodecCycles:       1,
			UsesSegmentBits:   true,
			DesignWires:       64,
			DesignSegmentBits: 8,
		},
		// Both literature codecs segment identically.
		Validate: fpf.ValidateSpec,
	})
}

// LWC is the transition-signaled low-weight-code link.
type LWC struct {
	blockBits int
	wires     int
	segBits   int
	segs      int
	code      *lowweight.Code

	// The block as words (in) and the receiver's reassembled block
	// (out), sized to cover every beat including a partial final one;
	// in's words past the block stay zero, the idle padding wires.
	in, out []uint64

	// Wire state per segment; the codeword is XORed onto it each beat.
	wireLo  []uint64
	wireExt []bool

	decoded []byte
}

// New builds an lwc link: blockBits transferred over dataWires data wires
// in segBits-bit segments, each with one spare codeword wire.
func New(blockBits, dataWires, segBits int) (*LWC, error) {
	if blockBits <= 0 || blockBits%8 != 0 {
		return nil, fmt.Errorf("lwc: block of %d bits is not a positive multiple of 8", blockBits)
	}
	if dataWires <= 0 || dataWires%segBits != 0 {
		return nil, fmt.Errorf("lwc: %d wires not divisible into %d-bit segments", dataWires, segBits)
	}
	code, err := lowweight.New(segBits)
	if err != nil {
		return nil, err
	}
	segs := dataWires / segBits
	beats := (blockBits + dataWires - 1) / dataWires
	words := (beats*dataWires + 63) / 64
	return &LWC{
		blockBits: blockBits,
		wires:     dataWires,
		segBits:   segBits,
		segs:      segs,
		code:      code,
		in:        make([]uint64, words),
		out:       make([]uint64, words),
		wireLo:    make([]uint64, segs),
		wireExt:   make([]bool, segs),
	}, nil
}

// Name implements link.Link.
func (l *LWC) Name() string { return "lwc" }

// DataWires implements link.Link.
func (l *LWC) DataWires() int { return l.wires }

// ExtraWires implements link.Link: one spare codeword wire per segment.
func (l *LWC) ExtraWires() int { return l.segs }

// BlockBytes implements link.Link.
func (l *LWC) BlockBytes() int { return l.blockBits / 8 }

// Segments returns the number of bus segments.
func (l *LWC) Segments() int { return l.segs }

// Send implements link.Link.
//
//desclint:hotpath
func (l *LWC) Send(block []byte) link.Cost {
	if len(block)*8 != l.blockBits {
		panic(fmt.Sprintf("schemes: lwc Send of %d bits on %d-bit link", len(block)*8, l.blockBits))
	}
	if cap(l.decoded) < len(block) {
		l.decoded = make([]byte, len(block))
	}
	l.decoded = l.decoded[:len(block)]

	// Segment s of beat b is the field at bit b*wires + s*k of the
	// block, read from the block's words and decoded into the
	// receiver's words, stored once at the end (as in fpf).
	bitutil.LoadWords(l.in, block)
	clear(l.out)
	beats := (l.blockBits + l.wires - 1) / l.wires
	k := l.segBits
	var dataFlips, ctrlFlips uint64
	off := 0
	for b := 0; b < beats; b++ {
		for s := 0; s < l.segs; s++ {
			lo, ext := l.code.Encode(lowweight.Field(l.in, off, k))
			// Transition signaling: flips are exactly the codeword
			// weight, at most k/2 per segment.
			dataFlips += uint64(bits.OnesCount64(lo))
			l.wireLo[s] ^= lo
			if ext {
				ctrlFlips++
				l.wireExt[s] = !l.wireExt[s]
			}
			// The receiver ranks the state difference back to data.
			lowweight.OrField(l.out, off, k, l.code.Decode(lo, ext))
			off += k
		}
	}
	bitutil.StoreWords(l.decoded, l.out)
	return link.Cost{
		Cycles: int64(beats),
		Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
	}
}

// LastDecoded implements link.Decoder. The slice is overwritten by the
// next Send; copy to retain.
func (l *LWC) LastDecoded() []byte { return l.decoded }

// Reset implements link.Link.
func (l *LWC) Reset() {
	for i := range l.wireLo {
		l.wireLo[i] = 0
		l.wireExt[i] = false
	}
	l.decoded = l.decoded[:0]
}

var (
	_ link.Link    = (*LWC)(nil)
	_ link.Decoder = (*LWC)(nil)
)
