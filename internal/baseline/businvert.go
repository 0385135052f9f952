package baseline

import (
	"fmt"
	"math"
	"math/bits"

	"desc/internal/bitutil"
	"desc/internal/link"
)

// InvertMode selects the bus-invert variant.
type InvertMode int

const (
	// InvertOnly is classic bus-invert coding: one invert wire per
	// segment; the segment is transmitted inverted whenever that halves
	// the Hamming distance.
	InvertOnly InvertMode = iota
	// InvertZeroSkip adds a zero-indicator wire per segment (the paper's
	// sparse "Zero Skipped Bus Invert"): an all-zero segment is signaled
	// on the indicator and the data wires stay silent. The encoder
	// accounts for indicator-wire flips when choosing the mode, as the
	// paper specifies.
	InvertZeroSkip
	// InvertEncodedZeroSkip replaces the per-segment wires with a single
	// dense mode field covering all segments (the paper's "Encoded Zero
	// Skipped Bus Invert"): each segment's mode is one of
	// {non-inverted, inverted, skipped}, and the base-3 mode vector is
	// binary-encoded on ceil(log2 3^segments) wires.
	InvertEncodedZeroSkip
)

// String returns the scheme name used in the registry.
func (m InvertMode) String() string {
	switch m {
	case InvertOnly:
		return "bic"
	case InvertZeroSkip:
		return "bic-zs"
	case InvertEncodedZeroSkip:
		return "bic-ezs"
	default:
		return fmt.Sprintf("InvertMode(%d)", int(m))
	}
}

// BusInvert implements the three bus-invert variants over a segmented bus.
// Wire state lives in uint64 words and every beat runs the lane kernel of
// sendBeat at any segment width (see segLanes), so the codec stays fast
// on the simulator's hot path.
type BusInvert struct {
	blockBits int
	wires     int
	segBits   int
	segs      int
	mode      InvertMode
	lanes     segLanes

	state   []uint64 // data wire levels
	scratch []uint64 // beat being encoded
	// Per-segment control levels, one word per lane group (see
	// segLanes): the invert wires, and the zero indicators of bic-zs.
	invert []uint64
	zero   []uint64
	// Dense mode field levels, wire b at bit b%64 of word b/64, over
	// modeWires wires.
	modeBus   []uint64
	modeWires int

	modes   []int // scratch: per-segment mode of the current beat (ezs)
	rxModes []int // scratch: modes re-decoded from the mode field (ezs)
	digits  []int // scratch: base-3 digit vector of wide mode fields

	// What the receiver samples after each beat of the last Send, beat b
	// at offset b times the per-beat length: the data wire levels and
	// whichever control levels the variant drives. LastDecoded decodes
	// from them on demand (see link.OnDemand).
	rxState  []uint64
	rxInvert []uint64
	rxZero   []uint64
	rxMode   []uint64
	dec      link.OnDemand
	decoded  []byte
}

// NewBusInvert builds a bus-invert link. dataWires must be divisible by
// segBits, and segBits must pack into 64-bit words (divide 64 or be a
// multiple of 64).
func NewBusInvert(blockBits, dataWires, segBits int, mode InvertMode) (*BusInvert, error) {
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
	segs := dataWires / segBits
	words := (dataWires + 63) / 64
	beats := (blockBits + dataWires - 1) / dataWires
	l := &BusInvert{
		blockBits: blockBits,
		wires:     dataWires,
		segBits:   segBits,
		segs:      segs,
		mode:      mode,
		lanes:     newSegLanes(dataWires, segBits),
		state:     make([]uint64, words),
		scratch:   make([]uint64, words),
		rxState:   make([]uint64, beats*words),
		decoded:   make([]byte, 0, blockBits/8),
	}
	groups := len(l.lanes.valid)
	switch mode {
	case InvertOnly:
		l.invert = make([]uint64, groups)
		l.rxInvert = make([]uint64, beats*groups)
	case InvertZeroSkip:
		l.invert = make([]uint64, groups)
		l.zero = make([]uint64, groups)
		l.rxInvert = make([]uint64, beats*groups)
		l.rxZero = make([]uint64, beats*groups)
	case InvertEncodedZeroSkip:
		l.modeWires = encodedModeWires(segs)
		l.modeBus = make([]uint64, (l.modeWires+63)/64)
		l.rxMode = make([]uint64, beats*len(l.modeBus))
		l.modes = make([]int, segs)
		l.rxModes = make([]int, segs)
		l.digits = make([]int, segs)
	default:
		return nil, fmt.Errorf("baseline: unknown invert mode %d", int(mode))
	}
	return l, nil
}

// maxWordModeSegs is the widest mode vector whose value fits one machine
// word: 3^40 < 2^64 < 3^41.
const maxWordModeSegs = 40

// encodedModeWires returns ceil(log2(3^segs)): the width of the dense
// base-3 mode field.
func encodedModeWires(segs int) int {
	return int(math.Ceil(float64(segs) * math.Log2(3)))
}

// Name implements link.Link.
func (l *BusInvert) Name() string { return l.mode.String() }

// DataWires implements link.Link.
func (l *BusInvert) DataWires() int { return l.wires }

// ExtraWires implements link.Link.
func (l *BusInvert) ExtraWires() int {
	switch l.mode {
	case InvertOnly:
		return l.segs
	case InvertZeroSkip:
		return 2 * l.segs
	default:
		return l.modeWires
	}
}

// BlockBytes implements link.Link.
func (l *BusInvert) BlockBytes() int { return l.blockBits / 8 }

// Segments returns the number of bus segments.
func (l *BusInvert) Segments() int { return l.segs }

const (
	modeNormal = 0
	modeInvert = 1
	modeSkip   = 2
)

// Send implements link.Link.
//
//desclint:hotpath
func (l *BusInvert) Send(block []byte) link.Cost {
	if len(block)*8 != l.blockBits {
		panic(fmt.Sprintf("baseline: %s Send of %d bits on %d-bit link", l.Name(), len(block)*8, l.blockBits))
	}

	beats := (l.blockBits + l.wires - 1) / l.wires
	var dataFlips, ctrlFlips uint64
	for b := 0; b < beats; b++ {
		loadBits(l.scratch, block, b*l.wires, l.wires)
		d, c := l.sendBeat()
		dataFlips += d
		ctrlFlips += c
		if l.mode == InvertEncodedZeroSkip {
			ctrlFlips += l.driveModeField(l.modes)
		}
		l.record(b)
	}
	if l.dec.Sent() {
		l.decode()
	}
	return link.Cost{
		Cycles: int64(beats),
		Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
	}
}

// sendBeat encodes the beat in scratch, one lane group at a time: one
// LanePopcounts yields every segment's Hamming distance to the wires and
// one LaneZeroMask its all-zero segments. The mode decisions compare
// those distances with thresholds lane-wise and combine them with the
// packed control levels, the data wires drive as two lane-filled masks,
// and data and control flips are popcounts of the old levels against the
// new. The refBusInvert oracle pins it bit for bit.
//
//desclint:hotpath runs once per beat
func (l *BusInvert) sendBeat() (dataFlips, ctrlFlips uint64) {
	g := &l.lanes
	k := g.laneBits
	for grp, valid := range g.valid {
		data := l.scratch[grp*g.segWords : (grp+1)*g.segWords]
		state := l.state[grp*g.segWords : (grp+1)*g.segWords]
		pc, zm := g.distances(data, state), g.zeroLanes(grp, data)
		var inv, zero uint64
		if l.invert != nil {
			inv = l.invert[grp]
		}
		if l.zero != nil {
			zero = l.zero[grp]
		}
		// Inverting beats normal drive when hdInv plus the invert
		// wire's flip undercuts hd plus its flip, i.e. when
		// hd + inv >= flipAt: one distance threshold per invert level.
		flipAt := (l.segBits+1)/2 + 1
		beatsNormal := g.atLeast(pc, flipAt) | inv&g.atLeast(pc, flipAt-1)
		var invLanes, skipLanes uint64
		switch l.mode {
		case InvertOnly:
			invLanes = beatsNormal & valid
		case InvertZeroSkip:
			// Skipping costs the indicator's rise (none if it is
			// high already), so an all-zero segment is skipped
			// unless normal or inverted drive is free with the
			// indicator low: no distance and the invert wire low,
			// or every wire differs and the invert wire high.
			free := ^zero & (^inv&^g.atLeast(pc, 1) | inv&g.atLeast(pc, l.segBits))
			skipLanes = zm &^ free
			invLanes = beatsNormal & valid &^ skipLanes
		default: // InvertEncodedZeroSkip
			// The mode field is shared, so the per-segment decision
			// minimizes data flips only: invert when hdInv < hd.
			skipLanes = zm
			invLanes = g.atLeast(pc, l.segBits/2+1) & valid &^ skipLanes
			for m := valid; m != 0; m &= m - 1 {
				top := bits.TrailingZeros64(m)
				l.modes[grp*g.lanes+top/k] = modeInvert*int(invLanes>>uint(top)&1) + modeSkip*int(skipLanes>>uint(top)&1)
			}
		}
		// Drive: skipped segments keep their levels, inverted ones take
		// the complement, the rest take the data directly.
		invMask, keepMask := bitutil.LaneFill(invLanes, k), bitutil.LaneFill(skipLanes, k)
		for j, d := range data {
			next := (d^invMask)&^keepMask | state[j]&keepMask
			dataFlips += uint64(bits.OnesCount64(state[j] ^ next))
			state[j] = next
		}
		switch l.mode {
		case InvertOnly:
			ctrlFlips += uint64(bits.OnesCount64(inv ^ invLanes))
			l.invert[grp] = invLanes
		case InvertZeroSkip:
			// A skipped segment leaves its invert wire untouched.
			next := inv&skipLanes | invLanes
			ctrlFlips += uint64(bits.OnesCount64(inv^next) + bits.OnesCount64(zero^skipLanes))
			l.invert[grp], l.zero[grp] = next, skipLanes
		}
	}
	return dataFlips, ctrlFlips
}

// driveModeField binary-encodes the base-3 mode vector onto the mode wires
// and returns the flips.
//
//desclint:hotpath runs once per beat on bic-ezs
func (l *BusInvert) driveModeField(modes []int) uint64 {
	if len(modes) <= maxWordModeSegs {
		// The vector's value fits a word: evaluate it by Horner's
		// rule and drive all wires at once.
		var v uint64
		for i := len(modes) - 1; i >= 0; i-- {
			v = v*3 + uint64(modes[i])
		}
		flips := bits.OnesCount64(l.modeBus[0] ^ v)
		l.modeBus[0] = v
		return uint64(flips)
	}
	// Multi-precision conversion: repeatedly divide the base-3 digit
	// vector by two, collecting remainders as bits.
	digits := l.digits
	copy(digits, modes)
	flips := uint64(0)
	var word uint64
	for b := 0; b < l.modeWires; b++ {
		rem := 0
		for i := len(digits) - 1; i >= 0; i-- {
			cur := rem*3 + digits[i]
			digits[i] = cur / 2
			rem = cur % 2
		}
		word |= uint64(rem) << uint(b&63)
		if b&63 == 63 || b == l.modeWires-1 {
			flips += uint64(bits.OnesCount64(l.modeBus[b>>6] ^ word))
			l.modeBus[b>>6] = word
			word = 0
		}
	}
	return flips
}

// readModeField decodes the base-3 mode vector from the mode wires' current
// levels into the reused rxModes scratch.
func (l *BusInvert) readModeField(segs int) []int { return l.modeFieldOf(l.modeBus, segs) }

// modeFieldOf decodes the base-3 mode vector from the mode wire levels
// modeBus into the reused rxModes scratch.
//
//desclint:hotpath runs once per decoded beat on bic-ezs
func (l *BusInvert) modeFieldOf(modeBus []uint64, segs int) []int {
	modes := l.rxModes[:segs]
	if segs <= maxWordModeSegs {
		v := modeBus[0]
		for i := range modes {
			modes[i] = int(v % 3)
			v /= 3
		}
		return modes
	}
	for i := range modes {
		modes[i] = 0
	}
	for b := l.modeWires - 1; b >= 0; b-- {
		carry := int(modeBus[b>>6] >> uint(b&63) & 1)
		for i := 0; i < segs; i++ {
			cur := modes[i]*2 + carry
			modes[i] = cur % 3
			carry = cur / 3
		}
	}
	return modes
}

// record saves what the receiver samples after beat b: the data wire
// levels and the variant's control levels.
//
//desclint:hotpath runs once per beat
func (l *BusInvert) record(b int) {
	copy(l.rxState[b*len(l.state):], l.state)
	copy(l.rxInvert[b*len(l.invert):], l.invert)
	copy(l.rxZero[b*len(l.zero):], l.zero)
	copy(l.rxMode[b*len(l.modeBus):], l.modeBus)
}

// decode reconstructs the receiver's view of the last Send into the
// decoded buffer from the recorded levels.
func (l *BusInvert) decode() {
	l.decoded = l.decoded[:l.blockBits/8]
	for b := 0; b < len(l.rxState)/len(l.state); b++ {
		l.decodeBeat(b)
	}
}

// decodeBeat reconstructs the receiver's view of beat b into the decoded
// buffer from the recorded wire state and indicator/mode levels: the
// per-segment levels of each lane group become an invert and a skip
// mask, as in sendBeat.
//
//desclint:hotpath runs once per decoded beat
func (l *BusInvert) decodeBeat(b int) {
	g := &l.lanes
	state := l.rxState[b*len(l.state) : (b+1)*len(l.state)]
	var modes []int
	if l.mode == InvertEncodedZeroSkip {
		n := len(l.modeBus)
		modes = l.modeFieldOf(l.rxMode[b*n:(b+1)*n], l.segs)
	}
	for grp, valid := range g.valid {
		var invLanes, skipLanes uint64
		switch l.mode {
		case InvertOnly:
			invLanes = l.rxInvert[b*len(g.valid)+grp]
		case InvertZeroSkip:
			skipLanes = l.rxZero[b*len(g.valid)+grp]
			invLanes = l.rxInvert[b*len(g.valid)+grp] &^ skipLanes
		default:
			for m := valid; m != 0; m &= m - 1 {
				top := m & -m
				switch modes[grp*g.lanes+(bits.TrailingZeros64(m)+1)/g.laneBits-1] {
				case modeInvert:
					invLanes |= top
				case modeSkip:
					skipLanes |= top
				}
			}
		}
		invMask, skipMask := bitutil.LaneFill(invLanes, g.laneBits), bitutil.LaneFill(skipLanes, g.laneBits)
		for j := grp * g.segWords; j < (grp+1)*g.segWords; j++ {
			l.scratch[j] = (state[j] ^ invMask) &^ skipMask
		}
	}
	storeBits(l.decoded, l.scratch, b*l.wires, l.wires)
}

// LastDecoded implements link.Decoder, decoding the last Send on the first
// call after it. The slice is overwritten by the next Send; copy to
// retain.
func (l *BusInvert) LastDecoded() []byte {
	if l.dec.Read() {
		l.decode()
	}
	return l.decoded
}

// Reset implements link.Link.
func (l *BusInvert) Reset() {
	for i := range l.state {
		l.state[i] = 0
	}
	for i := range l.invert {
		l.invert[i] = 0
	}
	for i := range l.zero {
		l.zero[i] = 0
	}
	for i := range l.modeBus {
		l.modeBus[i] = 0
	}
	l.dec.Reset()
	l.decoded = l.decoded[:0]
}

var (
	_ link.Link    = (*BusInvert)(nil)
	_ link.Decoder = (*BusInvert)(nil)
)
