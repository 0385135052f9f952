package baseline

import (
	"fmt"
	"math/bits"

	"desc/internal/bitutil"
	"desc/internal/link"
)

// DZC implements dynamic zero compression [Villa, Zhang & Asanovic,
// MICRO 2000] at the bus level: the data wires are divided into segments,
// each with a zero-indicator wire. An all-zero segment raises its
// indicator and leaves the data wires untouched; a non-zero segment lowers
// the indicator and drives the data conventionally. Wire state is word
// based for speed, like the other hot-path codecs.
type DZC struct {
	blockBits int
	wires     int
	segBits   int
	segs      int

	state   []uint64
	scratch []uint64
	zero    []bool

	decoded []byte
}

// NewDZC builds a dynamic-zero-compression link. dataWires must be
// divisible by segBits, which must pack into 64-bit words.
func NewDZC(blockBits, dataWires, segBits int) (*DZC, error) {
	if err := validGeometry(blockBits, dataWires); err != nil {
		return nil, err
	}
	if segBits <= 0 || dataWires%segBits != 0 {
		return nil, fmt.Errorf("baseline: %d wires not divisible into %d-bit segments", dataWires, segBits)
	}
	if segBits < 64 && 64%segBits != 0 {
		return nil, fmt.Errorf("baseline: %d-bit segments straddle 64-bit words", segBits)
	}
	if segBits > 64 && segBits%64 != 0 {
		return nil, fmt.Errorf("baseline: %d-bit segments are not whole words", segBits)
	}
	words := (dataWires + 63) / 64
	return &DZC{
		blockBits: blockBits,
		wires:     dataWires,
		segBits:   segBits,
		segs:      dataWires / segBits,
		state:     make([]uint64, words),
		scratch:   make([]uint64, words),
		zero:      make([]bool, dataWires/segBits),
	}, nil
}

// Name implements link.Link.
func (l *DZC) Name() string { return "dzc" }

// DataWires implements link.Link.
func (l *DZC) DataWires() int { return l.wires }

// ExtraWires implements link.Link.
func (l *DZC) ExtraWires() int { return l.segs }

// BlockBytes implements link.Link.
func (l *DZC) BlockBytes() int { return l.blockBits / 8 }

// Segments returns the number of bus segments.
func (l *DZC) Segments() int { return l.segs }

// Send implements link.Link.
//
//desclint:hotpath
func (l *DZC) Send(block []byte) link.Cost {
	if len(block)*8 != l.blockBits {
		panic(fmt.Sprintf("baseline: dzc Send of %d bits on %d-bit link", len(block)*8, l.blockBits))
	}
	if cap(l.decoded) < len(block) {
		l.decoded = make([]byte, len(block))
	}
	l.decoded = l.decoded[:len(block)]

	beats := (l.blockBits + l.wires - 1) / l.wires
	var dataFlips, ctrlFlips uint64
	for b := 0; b < beats; b++ {
		loadBits(l.scratch, block, b*l.wires, l.wires)
		if l.segBits == 8 {
			dataFlips, ctrlFlips = l.sendBeatBytes(dataFlips, ctrlFlips)
		} else {
			for s := 0; s < l.segs; s++ {
				dataFlips, ctrlFlips = l.sendSeg(s, dataFlips, ctrlFlips)
			}
			// Receiver view: wire state with zero-indicated segments
			// forced to zero.
			for w := range l.scratch {
				l.scratch[w] = l.state[w]
			}
			for s := 0; s < l.segs; s++ {
				if l.zero[s] {
					l.maskSeg(s)
				}
			}
		}
		storeBits(l.decoded, l.scratch, b*l.wires, l.wires)
	}
	return link.Cost{
		Cycles: int64(beats),
		Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
	}
}

// sendBeatBytes is the word-parallel encoder for the common byte-segment
// geometry: a word of wire state holds 8 segments, all-zero segments fall
// out of one ByteZeroMask, and the new state assembles from two masked
// words instead of per-segment shifts. The receiver view is left in
// scratch for the caller's storeBits. It must agree with the scalar
// sendSeg/maskSeg path bit-for-bit (the refDZC oracle pins both).
//
//desclint:hotpath runs once per beat on byte-segment geometries
func (l *DZC) sendBeatBytes(dataFlips, ctrlFlips uint64) (uint64, uint64) {
	for w := range l.scratch {
		data := l.scratch[w]
		// keepMask spans the all-zero segments: their data wires keep
		// their old levels and only the indicator (a control wire) can
		// flip. Padding lanes beyond the bus are zero in both data and
		// state, so keeping them is a no-op.
		keepMask := (bitutil.ByteZeroMask(data) >> 7) * 0xFF
		newState := data&^keepMask | l.state[w]&keepMask
		dataFlips += uint64(bits.OnesCount64(l.state[w] ^ newState))
		l.state[w] = newState

		// Indicator updates stay per segment: they are persistent
		// control-wire levels with hysteresis.
		lanes := l.segs - w*8
		if lanes > 8 {
			lanes = 8
		}
		for i := 0; i < lanes; i++ {
			z := keepMask>>(8*uint(i))&1 != 0
			if l.zero[w*8+i] != z {
				l.zero[w*8+i] = z
				ctrlFlips++
			}
		}
		// Receiver view: zero-indicated segments read as zero.
		l.scratch[w] = newState &^ keepMask
	}
	return dataFlips, ctrlFlips
}

// sendSeg encodes one segment of the current beat.
func (l *DZC) sendSeg(s int, dataFlips, ctrlFlips uint64) (uint64, uint64) {
	fw, shift, mask, words := l.segGeom(s)
	allZero := true
	if words == 1 {
		allZero = (l.scratch[fw]>>uint(shift))&mask == 0
	} else {
		for w := 0; w < words; w++ {
			if l.scratch[fw+w] != 0 {
				allZero = false
				break
			}
		}
	}
	if allZero {
		if !l.zero[s] {
			l.zero[s] = true
			ctrlFlips++
		}
		return dataFlips, ctrlFlips
	}
	if l.zero[s] {
		l.zero[s] = false
		ctrlFlips++
	}
	if words == 1 {
		data := (l.scratch[fw] >> uint(shift)) & mask
		cur := (l.state[fw] >> uint(shift)) & mask
		dataFlips += uint64(bits.OnesCount64(cur ^ data))
		l.state[fw] = (l.state[fw] &^ (mask << uint(shift))) | (data << uint(shift))
	} else {
		for w := 0; w < words; w++ {
			dataFlips += uint64(bits.OnesCount64(l.state[fw+w] ^ l.scratch[fw+w]))
			l.state[fw+w] = l.scratch[fw+w]
		}
	}
	return dataFlips, ctrlFlips
}

// segGeom mirrors BusInvert's segment geometry.
func (l *DZC) segGeom(s int) (firstWord, shift int, mask uint64, words int) {
	bitOff := s * l.segBits
	if l.segBits >= 64 {
		return bitOff / 64, 0, ^uint64(0), l.segBits / 64
	}
	mask = (uint64(1) << uint(l.segBits)) - 1
	return bitOff / 64, bitOff % 64, mask, 1
}

// maskSeg zeroes segment s in the scratch (receiver view) words.
func (l *DZC) maskSeg(s int) {
	fw, shift, mask, words := l.segGeom(s)
	if words == 1 {
		l.scratch[fw] &^= mask << uint(shift)
		return
	}
	for w := 0; w < words; w++ {
		l.scratch[fw+w] = 0
	}
}

// LastDecoded implements link.Decoder. The slice is overwritten by the
// next Send; copy to retain.
func (l *DZC) LastDecoded() []byte { return l.decoded }

// Reset implements link.Link.
func (l *DZC) Reset() {
	for i := range l.state {
		l.state[i] = 0
	}
	for i := range l.zero {
		l.zero[i] = false
	}
	l.decoded = l.decoded[:0]
}

var (
	_ link.Link    = (*DZC)(nil)
	_ link.Decoder = (*DZC)(nil)
)
