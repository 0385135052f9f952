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
// FlipCount.Control.
package fpf

import (
	"fmt"
	"math/bits"

	"desc/internal/bitutil"
	"desc/internal/link"
	"desc/internal/schemes/lowweight"
)

func init() {
	link.Register(link.Descriptor{
		Name:  "fpf",
		Label: "Fixed-Pattern Memoryless",
		Factory: func(s link.Spec) (link.Link, error) {
			return New(s.BlockBits, s.DataWires, SegBits(s))
		},
		Traits: link.Traits{
			CodecCycles:       1,
			UsesSegmentBits:   true,
			DesignWires:       64,
			DesignSegmentBits: 8,
		},
		Validate: ValidateSpec,
	})
}

// SegBits returns the spec's segment width with the design-point default.
// Only an exact zero means "use the default": a negative width passes
// through so ValidateSpec rejects it, rather than being coerced into a
// geometry the caller never asked for.
func SegBits(s link.Spec) int {
	if s.SegmentBits == 0 {
		return 8
	}
	return s.SegmentBits
}

// ValidateSpec checks the segment constraints the codebook imposes: an
// even width within the codebook's range that tiles the data wires. The
// lwc descriptor shares it — both schemes segment identically.
func ValidateSpec(s link.Spec) error {
	return lowweight.ValidateSegment(s.Scheme, s.DataWires, SegBits(s))
}

// FPF is the fixed-pattern memoryless link.
type FPF struct {
	blockBits int
	wires     int // data wires (k bits per segment)
	segBits   int
	segs      int
	code      *lowweight.Code

	// The block as words (in) and the receiver's reassembled block
	// (out), sized to cover every beat including a partial final one;
	// in's words past the block stay zero, the idle padding wires.
	in, out []uint64

	// Wire state per segment: the data-wire pattern and the spare wire.
	wireLo  []uint64
	wireExt []bool

	decoded []byte
}

// New builds an fpf link: blockBits transferred over dataWires data wires
// in segBits-bit segments, each with one spare codeword wire.
func New(blockBits, dataWires, segBits int) (*FPF, error) {
	if blockBits <= 0 || blockBits%8 != 0 {
		return nil, fmt.Errorf("fpf: block of %d bits is not a positive multiple of 8", blockBits)
	}
	if dataWires <= 0 || dataWires%segBits != 0 {
		return nil, fmt.Errorf("fpf: %d wires not divisible into %d-bit segments", dataWires, segBits)
	}
	code, err := lowweight.New(segBits)
	if err != nil {
		return nil, err
	}
	segs := dataWires / segBits
	beats := (blockBits + dataWires - 1) / dataWires
	words := (beats*dataWires + 63) / 64
	return &FPF{
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
func (l *FPF) Name() string { return "fpf" }

// DataWires implements link.Link.
func (l *FPF) DataWires() int { return l.wires }

// ExtraWires implements link.Link: one spare codeword wire per segment.
func (l *FPF) ExtraWires() int { return l.segs }

// BlockBytes implements link.Link.
func (l *FPF) BlockBytes() int { return l.blockBits / 8 }

// Segments returns the number of bus segments.
func (l *FPF) Segments() int { return l.segs }

// Send implements link.Link.
//
//desclint:hotpath
func (l *FPF) Send(block []byte) link.Cost {
	if len(block)*8 != l.blockBits {
		panic(fmt.Sprintf("schemes: fpf Send of %d bits on %d-bit link", len(block)*8, l.blockBits))
	}
	if cap(l.decoded) < len(block) {
		l.decoded = make([]byte, len(block))
	}
	l.decoded = l.decoded[:len(block)]

	// Segments tile the beats back to back, so segment s of beat b is
	// the field at bit b*wires + s*k of the block: every field comes
	// straight out of the block's words and every decoded field goes
	// straight into the receiver's words, stored once at the end.
	bitutil.LoadWords(l.in, block)
	clear(l.out)
	beats := (l.blockBits + l.wires - 1) / l.wires
	k := l.segBits
	var dataFlips, ctrlFlips uint64
	off := 0
	for b := 0; b < beats; b++ {
		for s := 0; s < l.segs; s++ {
			lo, ext := l.code.Encode(lowweight.Field(l.in, off, k))
			dataFlips += uint64(bits.OnesCount64(l.wireLo[s] ^ lo))
			if l.wireExt[s] != ext {
				ctrlFlips++
			}
			l.wireLo[s], l.wireExt[s] = lo, ext
			// The receiver ranks the settled wire pattern back to data.
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
func (l *FPF) LastDecoded() []byte { return l.decoded }

// Reset implements link.Link.
func (l *FPF) Reset() {
	for i := range l.wireLo {
		l.wireLo[i] = 0
		l.wireExt[i] = false
	}
	l.decoded = l.decoded[:0]
}

var (
	_ link.Link    = (*FPF)(nil)
	_ link.Decoder = (*FPF)(nil)
)
