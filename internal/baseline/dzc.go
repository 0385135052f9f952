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
// based and every beat runs the lane kernel of sendBeat at any segment
// width (see segLanes), like the other hot-path codecs.
type DZC struct {
	blockBits int
	wires     int
	segBits   int
	segs      int
	lanes     segLanes

	state   []uint64
	scratch []uint64
	zero    []uint64 // indicator levels, one word per lane group

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
	lanes := newSegLanes(dataWires, segBits)
	return &DZC{
		blockBits: blockBits,
		wires:     dataWires,
		segBits:   segBits,
		segs:      dataWires / segBits,
		lanes:     lanes,
		state:     make([]uint64, words),
		scratch:   make([]uint64, words),
		zero:      make([]uint64, len(lanes.valid)),
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
		d, c := l.sendBeat()
		dataFlips += d
		ctrlFlips += c
		storeBits(l.decoded, l.scratch, b*l.wires, l.wires)
	}
	return link.Cost{
		Cycles: int64(beats),
		Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
	}
}

// sendBeat encodes the beat in scratch, one lane group at a time, and
// leaves the receiver view in scratch for the caller's storeBits. One
// LaneZeroMask is the new set of raised indicators: their segments keep
// their old data levels, the rest take the data, and both the data and
// the indicator flips are popcounts of old levels against new. The
// refDZC oracle pins it bit for bit.
//
//desclint:hotpath runs once per beat
func (l *DZC) sendBeat() (dataFlips, ctrlFlips uint64) {
	g := &l.lanes
	for grp := range g.valid {
		data := l.scratch[grp*g.segWords : (grp+1)*g.segWords]
		state := l.state[grp*g.segWords : (grp+1)*g.segWords]
		zm := g.zeroLanes(grp, data)
		keep := bitutil.LaneFill(zm, g.laneBits)
		for j, d := range data {
			next := d&^keep | state[j]&keep
			dataFlips += uint64(bits.OnesCount64(state[j] ^ next))
			state[j] = next
			// Receiver view: zero-indicated segments read as zero.
			data[j] = next &^ keep
		}
		ctrlFlips += uint64(bits.OnesCount64(l.zero[grp] ^ zm))
		l.zero[grp] = zm
	}
	return dataFlips, ctrlFlips
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
		l.zero[i] = 0
	}
	l.decoded = l.decoded[:0]
}

var (
	_ link.Link    = (*DZC)(nil)
	_ link.Decoder = (*DZC)(nil)
)
