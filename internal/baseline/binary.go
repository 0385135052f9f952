package baseline

import (
	"fmt"
	"math/bits"

	"desc/internal/bitutil"
	"desc/internal/bus"
	"desc/internal/link"
)

// Binary is conventional parallel binary transfer: a block of B bits
// crosses W data wires in ceil(B/W) beats of one cycle each; each beat
// drives the wires to the data levels, costing the Hamming distance
// between the previous and new bus state (Figure 3a).
//
// The implementation is word-based — wire state lives in uint64 words and
// per-beat flips are popcounts of XORed words — because this codec sits on
// the hot path of every baseline simulation.
type Binary struct {
	blockBits int
	wires     int
	state     []uint64 // ceil(wires/64) words of wire state
	scratch   []uint64
	decoded   []byte
}

// NewBinary builds a binary link of the given block size and width.
func NewBinary(blockBits, dataWires int) (*Binary, error) {
	if err := validGeometry(blockBits, dataWires); err != nil {
		return nil, err
	}
	words := (dataWires + 63) / 64
	return &Binary{
		blockBits: blockBits,
		wires:     dataWires,
		state:     make([]uint64, words),
		scratch:   make([]uint64, words),
	}, nil
}

// Name implements link.Link.
func (l *Binary) Name() string { return "binary" }

// DataWires implements link.Link.
func (l *Binary) DataWires() int { return l.wires }

// ExtraWires implements link.Link.
func (l *Binary) ExtraWires() int { return 0 }

// BlockBytes implements link.Link.
func (l *Binary) BlockBytes() int { return l.blockBits / 8 }

// Send implements link.Link.
//
//desclint:hotpath
func (l *Binary) Send(block []byte) link.Cost {
	if len(block)*8 != l.blockBits {
		panic(fmt.Sprintf("baseline: binary Send of %d bits on %d-bit link", len(block)*8, l.blockBits))
	}
	if cap(l.decoded) < len(block) {
		l.decoded = make([]byte, len(block))
	}
	l.decoded = l.decoded[:len(block)]

	beats := (l.blockBits + l.wires - 1) / l.wires
	flips := uint64(0)
	for b := 0; b < beats; b++ {
		loadBits(l.scratch, block, b*l.wires, l.wires)
		for w := range l.state {
			flips += uint64(bits.OnesCount64(l.state[w] ^ l.scratch[w]))
			l.state[w] = l.scratch[w]
		}
		// The receiver samples the settled wires.
		storeBits(l.decoded, l.state, b*l.wires, l.wires)
	}
	return link.Cost{Cycles: int64(beats), Flips: link.FlipCount{Data: flips}}
}

// loadBits and storeBits are the beat load/store kernels, shared with the
// DESC decode path through internal/bitutil.
func loadBits(dst []uint64, block []byte, off, count int) {
	bitutil.LoadBits(dst, block, off, count)
}

func storeBits(block []byte, src []uint64, off, count int) {
	bitutil.StoreBits(block, src, off, count)
}

// LastDecoded implements link.Decoder. The slice is overwritten by the
// next Send; copy to retain.
func (l *Binary) LastDecoded() []byte { return l.decoded }

// Reset implements link.Link.
func (l *Binary) Reset() {
	for i := range l.state {
		l.state[i] = 0
	}
	l.decoded = l.decoded[:0]
}

// Serial transfers the block one bit per cycle on a single wire
// (Figure 3b). It exists to reproduce the paper's illustrative comparison
// and as a lower bound on wiring.
type Serial struct {
	blockBits int
	wire      *bus.Bus
	decoded   []byte
}

// NewSerial builds a serial link of the given block size.
func NewSerial(blockBits int) (*Serial, error) {
	if err := validGeometry(blockBits, 1); err != nil {
		return nil, err
	}
	return &Serial{blockBits: blockBits, wire: bus.New(1)}, nil
}

// Name implements link.Link.
func (l *Serial) Name() string { return "serial" }

// DataWires implements link.Link.
func (l *Serial) DataWires() int { return 1 }

// ExtraWires implements link.Link.
func (l *Serial) ExtraWires() int { return 0 }

// BlockBytes implements link.Link.
func (l *Serial) BlockBytes() int { return l.blockBits / 8 }

// Send implements link.Link. Bits go out most-significant first, matching
// the serialization order of the paper's Figure 3b.
//
//desclint:hotpath
func (l *Serial) Send(block []byte) link.Cost {
	if len(block)*8 != l.blockBits {
		panic(fmt.Sprintf("baseline: serial Send of %d bits on %d-bit link", len(block)*8, l.blockBits))
	}
	if cap(l.decoded) < len(block) {
		l.decoded = make([]byte, len(block))
	}
	decoded := l.decoded[:len(block)]
	for i := range decoded {
		decoded[i] = 0
	}
	flips := uint64(0)
	for i := l.blockBits - 1; i >= 0; i-- {
		v := block[i>>3]&(1<<(uint(i)&7)) != 0
		flips += uint64(l.wire.Set(0, v))
		if l.wire.State(0) {
			decoded[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	l.decoded = decoded
	return link.Cost{Cycles: int64(l.blockBits), Flips: link.FlipCount{Data: flips}}
}

// LastDecoded implements link.Decoder. The slice is overwritten by the
// next Send; copy to retain.
func (l *Serial) LastDecoded() []byte { return l.decoded }

// Reset implements link.Link.
func (l *Serial) Reset() {
	l.wire.Ground()
	l.wire.ResetCounters()
	l.decoded = l.decoded[:0]
}

var (
	_ link.Link    = (*Binary)(nil)
	_ link.Decoder = (*Binary)(nil)
	_ link.Link    = (*Serial)(nil)
	_ link.Decoder = (*Serial)(nil)
)
