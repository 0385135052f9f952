package lowweight

import (
	"fmt"
	"math/bits"

	"desc/internal/bitutil"
	"desc/internal/link"
)

// Register registers a literature codec on the segment kernel (see Link):
// transition false drives the wires to each codeword (fpf), true XORs it
// onto them (lwc).
func Register(name, label string, transition bool) {
	link.Register(link.Descriptor{
		Name:  name,
		Label: label,
		Factory: func(s link.Spec) (link.Link, error) {
			return NewLink(name, transition, s.BlockBits, s.DataWires, SegBits(s))
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
// through so ValidateSpec rejects it.
func SegBits(s link.Spec) int {
	if s.SegmentBits == 0 {
		return 8
	}
	return s.SegmentBits
}

// ValidateSpec checks the segment constraints the codebook imposes: an
// even width within the codebook's range that tiles the data wires.
func ValidateSpec(s link.Spec) error {
	return ValidateSegment(s.Scheme, s.DataWires, SegBits(s))
}

// Link is the segment kernel of fpf and lwc: the data wires are divided
// into k-bit segments, each widened by one spare wire, and each k-bit
// data word maps through the codebook onto a (k+1)-bit codeword of
// weight at most k/2. Send encodes a word of segments at a time (see
// Code.encodeRun) into packed beat words, data wire j at bit j%64 of word
// j/64, and a spare-wire mask laid out the same way, segment s's spare
// wire at bit s*k. Flips are popcounts over the whole record: of the
// words under transition signaling, which flips exactly the codeword
// weight from any wire state, and of each beat against the one before
// under drive signaling, beat 0 against the levels the last Send left.
type Link struct {
	name                        string
	transition                  bool
	blockBits, wires, k         int
	segs, beats, run, beatWords int // run: segments per encodeRun
	code                        *Code

	// The block as words (in) and the receiver's reassembled block
	// (out), covering every beat; in's words past the block stay zero,
	// the idle padding wires.
	in, out []uint64

	// The last Send's codewords and spare masks, beat b at
	// [(b+1)*beatWords:], after the levels the Send before left (drive
	// signaling only): what LastDecoded decodes on demand (see
	// link.OnDemand).
	rec, recSpare []uint64
	dec           link.OnDemand
	decoded       []byte
}

// NewLink builds the link of scheme name (see Register): blockBits
// transferred over dataWires data wires in segBits-bit segments.
func NewLink(name string, transition bool, blockBits, dataWires, segBits int) (*Link, error) {
	if blockBits <= 0 || blockBits%8 != 0 {
		return nil, fmt.Errorf("lowweight: %s: block of %d bits is not a positive multiple of 8", name, blockBits)
	}
	if err := ValidateSegment(name, dataWires, segBits); err != nil {
		return nil, err
	}
	code, _ := New(segBits) // a width ValidateSegment accepts
	segs, beats, w := dataWires/segBits, (blockBits+dataWires-1)/dataWires, (dataWires+63)/64
	l := &Link{
		name: name, transition: transition, blockBits: blockBits, wires: dataWires, k: segBits,
		segs: segs, beats: beats, run: min(64/segBits, segs), beatWords: w, code: code,
		in: make([]uint64, beats*w), out: make([]uint64, beats*w),
		rec: make([]uint64, (beats+1)*w), recSpare: make([]uint64, (beats+1)*w),
		decoded: make([]byte, 0, blockBits/8),
	}
	return l, nil
}

// Name implements link.Link.
func (l *Link) Name() string { return l.name }

// DataWires implements link.Link.
func (l *Link) DataWires() int { return l.wires }

// ExtraWires implements link.Link: one spare codeword wire per segment.
func (l *Link) ExtraWires() int { return l.segs }

// BlockBytes implements link.Link.
func (l *Link) BlockBytes() int { return l.blockBits / 8 }

// Segments returns the number of bus segments.
func (l *Link) Segments() int { return l.segs }

// Send implements link.Link.
//
//desclint:hotpath
func (l *Link) Send(block []byte) link.Cost {
	if len(block)*8 != l.blockBits {
		panic(fmt.Sprintf("lowweight: %s Send of %d bits on %d-bit link", l.name, len(block)*8, l.blockBits))
	}
	bitutil.LoadWords(l.in, block)
	k, w := l.k, l.beatWords
	clear(l.rec[w:])
	clear(l.recSpare[w:])
	for b := 0; b < l.beats; b++ {
		for s := 0; s < l.segs; s += l.run {
			n := min(l.run, l.segs-s)
			lo, spare := l.code.encodeRun(Field(l.in, b*l.wires+s*k, n*k), n)
			OrField(l.rec, (b+1)*w*64+s*k, n*k, lo)
			OrField(l.recSpare, (b+1)*w*64+s*k, n*k, spare)
		}
	}
	var dataFlips, ctrlFlips uint64
	if last := len(l.rec) - w; l.transition {
		dataFlips, ctrlFlips = weight(l.rec[w:]), weight(l.recSpare[w:])
	} else {
		dataFlips, ctrlFlips = distance(l.rec[:last], l.rec[w:]), distance(l.recSpare[:last], l.recSpare[w:])
		copy(l.rec, l.rec[last:])
		copy(l.recSpare, l.recSpare[last:])
	}
	if l.dec.Sent() {
		l.decode()
	}
	return link.Cost{
		Cycles: int64(l.beats),
		Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
	}
}

// weight returns the number of set bits in words.
//
//desclint:hotpath
func weight(words []uint64) uint64 {
	var n int
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// distance returns the Hamming distance between a and b, as long as b.
//
//desclint:hotpath
func distance(a, b []uint64) uint64 {
	var n int
	for i, w := range b {
		n += bits.OnesCount64(a[i] ^ w)
	}
	return uint64(n)
}

// decode reconstructs the receiver's view of the last Send: it ranks each
// recorded codeword back to data in its words, stored once at the end.
func (l *Link) decode() {
	clear(l.out)
	k := l.k
	for b := 0; b < l.beats; b++ {
		for s := 0; s < l.segs; s++ {
			at := (b+1)*l.beatWords*64 + s*k
			rank := l.code.Decode(Field(l.rec, at, k), Field(l.recSpare, at, 1) != 0)
			OrField(l.out, b*l.wires+s*k, k, rank)
		}
	}
	l.decoded = l.decoded[:l.blockBits/8]
	bitutil.StoreWords(l.decoded, l.out)
}

// LastDecoded implements link.Decoder, decoding the last Send on the first
// call after it. The slice is overwritten by the next Send; copy to
// retain.
func (l *Link) LastDecoded() []byte {
	if l.dec.Read() {
		l.decode()
	}
	return l.decoded
}

// Reset implements link.Link.
func (l *Link) Reset() {
	clear(l.rec[:l.beatWords])
	clear(l.recSpare[:l.beatWords])
	l.dec.Reset()
	l.decoded = l.decoded[:0]
}

var (
	_ link.Link    = (*Link)(nil)
	_ link.Decoder = (*Link)(nil)
)
