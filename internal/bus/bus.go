// Package bus models on-chip interconnect wires at the level that matters
// for energy: logic states and state transitions (bit-flips). Every data
// transfer scheme in this repository is ultimately expressed as a sequence
// of wire toggles on a Bus; the wire model (internal/wiremodel) converts
// flip counts into Joules.
//
// The package also provides cycle-level models of the three toggle-signaling
// circuit primitives from Figure 8 of the paper: the toggle generator,
// toggle detector, and toggle regenerator used on shared H-tree segments.
package bus

// Bus is a set of wires that remember their logic state and count their
// transitions. State persists across block transfers, exactly as physical
// wires do, so codecs see realistic inter-block Hamming distances.
type Bus struct {
	state []bool
	flips []uint64
	total uint64
}

// New returns a bus of n wires, all initialized to logic 0.
func New(n int) *Bus {
	return &Bus{state: make([]bool, n), flips: make([]uint64, n)}
}

// State reports the current logic level of wire i.
func (b *Bus) State(i int) bool { return b.state[i] }

// Toggle inverts wire i, recording one flip.
func (b *Bus) Toggle(i int) {
	b.state[i] = !b.state[i]
	b.flips[i]++
	b.total++
}

// Set drives wire i to level v, recording a flip if the level changes.
// It returns 1 if a flip occurred and 0 otherwise, so callers can
// attribute the energy.
func (b *Bus) Set(i int, v bool) int {
	if b.state[i] == v {
		return 0
	}
	b.state[i] = v
	b.flips[i]++
	b.total++
	return 1
}

// Flips returns the total number of transitions recorded on wire i.
func (b *Bus) Flips(i int) uint64 { return b.flips[i] }

// TotalFlips returns the total transitions across all wires.
func (b *Bus) TotalFlips() uint64 { return b.total }

// ResetCounters zeroes the flip counters without touching wire state.
func (b *Bus) ResetCounters() {
	for i := range b.flips {
		b.flips[i] = 0
	}
	b.total = 0
}

// Ground drives every wire to 0 without recording flips (used only to
// construct known initial conditions in tests).
func (b *Bus) Ground() {
	for i := range b.state {
		b.state[i] = false
	}
}

// Strobe is a single signaling wire (e.g. DESC's reset/skip strobe or the
// synchronization strobe) with its own state and flip counter.
type Strobe struct {
	state bool
	flips uint64
}

// Toggle inverts the strobe, recording one flip.
func (s *Strobe) Toggle() {
	s.state = !s.state
	s.flips++
}

// State reports the current level.
func (s *Strobe) State() bool { return s.state }

// Flips returns the number of transitions recorded.
func (s *Strobe) Flips() uint64 { return s.flips }

// ResetCounter zeroes the flip counter without touching the state.
func (s *Strobe) ResetCounter() { s.flips = 0 }
