// Package link defines the common interface implemented by every data
// transfer scheme in the repository — conventional binary, serial,
// bus-invert coding and its zero-skipping variants, dynamic zero
// compression, the DESC variants, and the literature codecs under
// internal/schemes — together with a self-describing descriptor registry
// so the experiment harness can instantiate schemes by name.
//
// A Link models one direction of the data path between the L2 cache
// controller and a set of mats. It is stateful: physical wires keep their
// levels between block transfers, and last-value skipping keeps per-wire
// history, so transfer costs depend on transfer order exactly as in
// hardware.
//
// Each scheme registers a Descriptor carrying not just a factory but the
// scheme's Traits: everything the model layers would otherwise have to
// infer from the name (codec logic latency, controller-side history
// class, whether the scheme uses DESC's per-mat TX/RX interfaces, which
// Spec geometry fields it consumes, and its paper design point). The
// cache model and the experiment harness query Lookup(name).Traits, so
// adding a scheme is one package with one Register call — no switch in
// any other layer needs editing.
package link

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
)

// FlipCount attributes wire transitions to wire classes. The wire model
// charges different energy per flip for each class (data wires span the
// full H-tree; the strobes are routed alongside them).
type FlipCount struct {
	// Data counts transitions on the data wires proper.
	Data uint64
	// Control counts transitions on scheme overhead wires: DESC's
	// reset/skip strobe, bus-invert's invert lines, zero-indicator and
	// mode-encoding wires.
	Control uint64
	// Sync counts transitions on DESC's half-frequency synchronization
	// strobe. Zero for schemes that do not use one.
	Sync uint64
}

// Total returns the total transitions across all wire classes.
func (f FlipCount) Total() uint64 { return f.Data + f.Control + f.Sync }

// Add accumulates other into f.
func (f *FlipCount) Add(other FlipCount) {
	f.Data += other.Data
	f.Control += other.Control
	f.Sync += other.Sync
}

// Cost is the outcome of transferring one cache block.
type Cost struct {
	// Cycles is the bus occupancy of the transfer in interconnect clock
	// cycles. For DESC this is data dependent. The field is int64 rather
	// than int because Cost doubles as an accumulator (Add): long
	// instrumented runs sum billions of per-transfer cycles, which would
	// silently wrap a 32-bit int.
	Cycles int64
	// Flips is the wire activity of the transfer.
	Flips FlipCount
}

// Add accumulates other into c (cycles add; a link is serially occupied).
func (c *Cost) Add(other Cost) {
	c.Cycles += other.Cycles
	c.Flips.Add(other.Flips)
}

// Link is one direction of a cache-controller<->mat data path.
//
// Implementations must be deterministic and must decode to the original
// block: the registry-wide conformance harness (linktest.Verify in
// internal/link/linktest) round-trips adversarial and random stateful
// traffic through every registered scheme.
type Link interface {
	// Name returns the scheme name, e.g. "desc-zero".
	Name() string
	// DataWires returns the number of data wires.
	DataWires() int
	// ExtraWires returns the number of overhead wires beyond the data
	// wires (strobes, invert lines, indicators, mode fields).
	ExtraWires() int
	// BlockBytes returns the transfer granularity in bytes.
	BlockBytes() int
	// Send transfers block (len must equal BlockBytes) and returns its
	// cost. The link's internal wire state advances.
	Send(block []byte) Cost
	// Reset returns all wires to logic 0 and clears history, without
	// recording flips. Used to start experiments from a known state.
	Reset()
}

// Decoder is implemented by links that expose the receiver's view, so
// tests can verify that the wire-level protocol actually carries the data.
//
// A codec may decode on demand (see OnDemand): Send records what the
// receiver samples, and the first LastDecoded after a Send decodes it.
// Reading once makes the link's later Sends decode eagerly, so a slice a
// caller retained is still overwritten in place by the next Send. A link
// that is never read, as in a simulation, never pays for the decode.
type Decoder interface {
	// LastDecoded returns the block recovered by the receiver for the
	// most recent Send. The returned slice aliases a buffer that
	// implementations reuse: the next Send overwrites it in place and
	// Reset invalidates it. Callers that retain the block across calls
	// must copy it first.
	LastDecoded() []byte
}

// OnDemand is the bookkeeping of a codec that decodes on demand. Send
// records the per-beat receiver inputs it already holds and calls Sent;
// LastDecoded calls Read and decodes the record when it reports a
// pending block; Reset calls Reset.
//
// The decode runs at the first LastDecoded after a Send or, once the link
// has been read, at the end of every Send. Only LastDecoded hands out the
// decode buffer, so a link that was never read has no retained slice to
// keep current and its Sends skip the decode; a read link decodes
// eagerly, which keeps the aliasing contract of Decoder exactly.
type OnDemand struct {
	pending bool // a recorded block awaits its decode
	read    bool // LastDecoded has been called on this link
}

// Sent marks a block recorded and reports whether Send must decode it now.
func (d *OnDemand) Sent() bool {
	d.pending = !d.read
	return d.read
}

// Read marks a LastDecoded call and reports whether the recorded block
// still awaits its decode.
func (d *OnDemand) Read() bool {
	d.read = true
	p := d.pending
	d.pending = false
	return p
}

// Reset drops a recorded block's pending decode. A link that was read
// stays read: a slice retained before the Reset aliases the same buffer.
func (d *OnDemand) Reset() { d.pending = false }

// Spec selects and parameterizes a scheme by name for registry-driven
// construction (the experiment harness sweeps these fields).
type Spec struct {
	// Scheme is a registered scheme name.
	Scheme string
	// BlockBits is the cache block size in bits (512 in the paper).
	BlockBits int
	// DataWires is the number of data wires (the paper's H-tree width
	// exploration spans 8..512; the DESC design point is 128).
	DataWires int
	// ChunkBits is the DESC chunk width (4 in the design point). Ignored
	// by non-DESC schemes.
	ChunkBits int
	// SegmentBits is the bus-invert / zero-compression segment size.
	// Ignored by schemes without segmentation.
	SegmentBits int
}

// Validate checks basic invariants shared by all schemes.
func (s Spec) Validate() error {
	if s.BlockBits <= 0 || s.BlockBits%8 != 0 {
		return fmt.Errorf("link: block size %d bits is not a positive multiple of 8", s.BlockBits)
	}
	if s.DataWires <= 0 {
		return fmt.Errorf("link: %d data wires", s.DataWires)
	}
	return nil
}

// Factory builds a Link from a Spec.
type Factory func(Spec) (Link, error)

// HistoryClass classifies the per-wire value history a scheme keeps at
// the cache controller. History is what last-value and adaptive skipping
// pay for their savings: the controller must broadcast writes across
// subbanks to keep every mat-side store coherent, and the tracking
// storage leaks (Section 5.2 of the paper).
type HistoryClass int

const (
	// HistoryNone: the scheme keeps no controller-side value history.
	HistoryNone HistoryClass = iota
	// HistoryLastValue: one last-value register per wire (desc-last).
	HistoryLastValue
	// HistoryAdaptive: per-wire frequency estimators — a larger store
	// than last-value's single register per wire (desc-adaptive).
	HistoryAdaptive
)

// String names the class for trait tables.
func (h HistoryClass) String() string {
	switch h {
	case HistoryNone:
		return "none"
	case HistoryLastValue:
		return "last-value"
	case HistoryAdaptive:
		return "adaptive"
	default:
		// Unknown classes print their ordinal rather than panicking:
		// String feeds -list-schemes tables.
		return fmt.Sprintf("HistoryClass(%d)", int(h))
	}
}

// LeakFactor returns the class's tracking-storage leakage as a multiple
// of the last-value store's leakage (the cache model's unit). Adaptive
// skipping tracks full frequency estimators, an 8x larger store.
func (h HistoryClass) LeakFactor() float64 {
	switch h {
	case HistoryLastValue:
		return 1
	case HistoryAdaptive:
		return 8
	default:
		// HistoryNone and unknown classes: no tracking store.
		return 0
	}
}

// Traits is the self-description a scheme registers alongside its
// factory: the per-scheme knowledge the model layers previously inferred
// from scheme names. Every field is data, so the cache model and the
// experiment sweeps stay scheme-agnostic.
type Traits struct {
	// CodecCycles is the encode/decode logic latency the scheme adds to
	// a block access, in interconnect cycles (0 for plain binary/serial,
	// 1 for the segmented codecs, 2 for DESC's synthesized TX+RX pair).
	CodecCycles int
	// History is the controller-side value-history class; it drives the
	// write-broadcast penalty and the tracking-store leakage.
	History HistoryClass
	// DESCInterface reports that the scheme terminates wires with DESC's
	// per-mat TX/RX counter interfaces, which add area per mat and
	// switching energy per active transfer cycle (Figure 17).
	DESCInterface bool
	// UsesChunkBits and UsesSegmentBits name the Spec geometry fields
	// the scheme consumes; sweeps enumerate only meaningful axes.
	UsesChunkBits   bool
	UsesSegmentBits bool
	// DesignWires, DesignChunkBits, and DesignSegmentBits are the
	// scheme's paper design point (the configuration comparison figures
	// evaluate). Zero fields mean the axis does not apply.
	DesignWires       int
	DesignChunkBits   int
	DesignSegmentBits int
}

// DesignSpec returns the scheme's design-point Spec for the given block
// size: the configuration the comparison figures and the scheme zoo
// evaluate when nothing overrides the geometry.
func (t Traits) DesignSpec(name string, blockBits int) Spec {
	return Spec{
		Scheme:      name,
		BlockBits:   blockBits,
		DataWires:   t.DesignWires,
		ChunkBits:   t.DesignChunkBits,
		SegmentBits: t.DesignSegmentBits,
	}
}

// Descriptor is a scheme's registry entry: identity, construction, and
// self-description.
type Descriptor struct {
	// Name is the registry key, e.g. "desc-zero".
	Name string
	// Label is the human-readable name figure legends use, e.g.
	// "Zero Skipped DESC".
	Label string
	// Factory builds the scheme from a validated Spec.
	Factory Factory
	// Traits carries the scheme's self-description.
	Traits Traits
	// Validate, when non-nil, checks the scheme-specific Spec
	// constraints (chunk widths, segment packing) before Factory runs,
	// so every caller gets the same early, named error.
	Validate func(Spec) error
}

var (
	regMu    sync.RWMutex
	registry = map[string]Descriptor{}
)

// Register installs a scheme descriptor. It panics on a duplicate or
// empty name or a nil factory; schemes register from init functions, so
// a bad registration is a programming error caught at import time.
func Register(d Descriptor) {
	if d.Name == "" {
		panic("link: Register with empty scheme name")
	}
	if d.Factory == nil {
		panic("link: scheme " + d.Name + " registered without a factory")
	}
	if d.Label == "" {
		d.Label = d.Name
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.Name]; dup {
		panic("link: duplicate scheme " + d.Name)
	}
	registry[d.Name] = d
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// New builds the scheme named in spec.Scheme, running the shared and the
// scheme's own Spec validation first. Unknown names are reported before
// any geometry check, with the registry and, for near-misses, a
// did-you-mean suggestion.
func New(spec Spec) (Link, error) {
	d, ok := Lookup(spec.Scheme)
	if !ok {
		if close := closeMatches(spec.Scheme); len(close) > 0 {
			return nil, fmt.Errorf("link: unknown scheme %q (did you mean %s? registered: %v)",
				spec.Scheme, strings.Join(close, " or "), Schemes())
		}
		return nil, fmt.Errorf("link: unknown scheme %q (registered: %v)", spec.Scheme, Schemes())
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if d.Validate != nil {
		if err := d.Validate(spec); err != nil {
			return nil, err
		}
	}
	return d.Factory(spec)
}

// Schemes returns the sorted names of all registered schemes.
func Schemes() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Descriptors returns every registered descriptor, sorted by name.
func Descriptors() []Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Descriptor, 0, len(registry))
	for _, d := range registry { //desclint:allow determinism sorted immediately below
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteRoster prints the registry as a sorted name/label/traits table,
// one row per descriptor: the roster every experiment (notably ext-zoo)
// sweeps, as the command-line tools' -list-schemes show it.
func WriteRoster(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tLABEL\tCODEC CYCLES\tHISTORY\tDESC I/F\tAXES\tDESIGN POINT")
	for _, d := range Descriptors() {
		var axes []string
		if d.Traits.UsesChunkBits {
			axes = append(axes, "chunk")
		}
		if d.Traits.UsesSegmentBits {
			axes = append(axes, "segment")
		}
		if len(axes) == 0 {
			axes = []string{"-"}
		}
		design := fmt.Sprintf("%dw", d.Traits.DesignWires)
		if d.Traits.DesignChunkBits > 0 {
			design += fmt.Sprintf(" %dc", d.Traits.DesignChunkBits)
		}
		if d.Traits.DesignSegmentBits > 0 {
			design += fmt.Sprintf(" %ds", d.Traits.DesignSegmentBits)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%v\t%s\t%s\n",
			d.Name, d.Label, d.Traits.CodecCycles, d.Traits.History,
			d.Traits.DESCInterface, strings.Join(axes, ","), design)
	}
	return tw.Flush()
}

// closeMatches returns registered names within edit distance 2 of name,
// sorted — the misspellings worth suggesting.
func closeMatches(name string) []string {
	var out []string
	for _, n := range Schemes() {
		if editDistance(name, n) <= 2 {
			out = append(out, n)
		}
	}
	return out
}

// editDistance is the Levenshtein distance between two short scheme
// names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			cur[j] = min(sub, min(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
