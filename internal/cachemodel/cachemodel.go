// Package cachemodel composes the SRAM arrays (internal/sram), the wire
// model (internal/wiremodel), and a data transfer scheme (internal/link)
// into a last-level cache energy and latency model, covering both the
// banked UCA organization of Figure 7 and the S-NUCA-1 organization of
// Section 5.5.
//
// The model is transaction level: the cycle-level cache simulator
// (internal/cachesim) calls Access once per block movement between the
// cache controller and a bank, passing the actual data; the model routes
// the block through the bank's link (so flip counts reflect real values
// and real wire history), converts flips to Joules over the bank's H-tree
// path, and returns the access latency.
package cachemodel

import (
	"fmt"
	"math"

	"desc/internal/link"
	"desc/internal/metrics"
	"desc/internal/sram"
	"desc/internal/wiremodel"

	// Register every transfer scheme so Config.Scheme resolves by name.
	_ "desc/internal/schemes"
)

// ECCConfig selects SECDED protection for the H-trees and arrays
// (Section 3.2.3, Figures 28/29).
type ECCConfig struct {
	// Enabled turns ECC on.
	Enabled bool
	// SegmentBits is the protected segment width: 64 for the (72,64)
	// code, 128 for (137,128).
	SegmentBits int
}

// parityBits returns the SECDED parity overhead for the segment size.
func (e ECCConfig) parityBits() int {
	switch e.SegmentBits {
	case 64:
		return 8
	case 128:
		return 9
	default:
		// General SECDED sizing: smallest r with 2^r >= k+r+1, +1.
		r := 0
		for (1 << uint(r)) < e.SegmentBits+r+1 {
			r++
		}
		return r + 1
	}
}

// Config parameterizes the cache model. Zero values take the paper's
// design-point defaults (Table 1 and Section 4.1).
type Config struct {
	// CapacityBytes is the total cache capacity (default 8MB).
	CapacityBytes int
	// Banks is the number of independent banks (default 8).
	Banks int
	// DataWires is the H-tree data width in wires (default 64).
	DataWires int
	// Scheme names the transfer scheme (default "binary").
	Scheme string
	// ChunkBits is DESC's chunk width (default 4).
	ChunkBits int
	// SegmentBits is the BIC/DZC segment size (default 8).
	SegmentBits int
	// Cells and Periphery are the array device classes (default LSTP).
	Cells, Periphery wiremodel.DeviceClass
	// ClockGHz is the clock frequency (default 3.2).
	ClockGHz float64
	// NUCA selects the S-NUCA-1 organization: per-bank private channels
	// with distance-dependent latency instead of a shared uniform
	// H-tree.
	NUCA bool
	// ECC enables SECDED protection.
	ECC ECCConfig
}

// withDefaults fills zero fields with the paper's design point.
func (c Config) withDefaults() Config {
	if c.CapacityBytes == 0 {
		c.CapacityBytes = 8 << 20
	}
	if c.Banks == 0 {
		c.Banks = 8
	}
	if c.DataWires == 0 {
		c.DataWires = 64
	}
	if c.Scheme == "" {
		c.Scheme = "binary"
	}
	if c.ChunkBits == 0 {
		c.ChunkBits = 4
	}
	if c.SegmentBits == 0 {
		c.SegmentBits = 8
	}
	if c.ClockGHz == 0 {
		c.ClockGHz = 3.2
	}
	return c
}

// blockBytes is Table 1's cache block size.
const blockBytes = 64

// node is the technology node of the evaluated cache (Table 1: 22nm).
var node = wiremodel.Node22

// Latency/energy constants beyond the wire and array models.
const (
	// controllerCycles covers request decode, arbitration, and way
	// select at the cache controller.
	controllerCycles = 2
	// addrWires is the width of the conventional binary address/control
	// bus (DESC is not applied to it, Section 3.2.1).
	addrWires = 40
	// addrActivity is the average switching probability of address
	// wires per access.
	addrActivity = 0.15
	// lastValueWriteBroadcastFactor inflates write H-tree energy for
	// last-value DESC: the controller must broadcast written data
	// across subbanks to keep every mat-side last-value store coherent
	// (Section 5.2).
	lastValueWriteBroadcastFactor = 1.35
	// lastValueStoreLeakW is the controller-side last-value tracking
	// storage leakage for last-value DESC.
	lastValueStoreLeakW = 0.002
	// descLogicPJPerCycle is the DESC transmitter + receiver switching
	// energy per active transfer cycle, derived from the synthesized
	// interface's peak power (Figure 17: 46mW at 3.2GHz = 14.4pJ/cycle
	// peak) at a typical activity factor. The paper accounts for these
	// interface overheads in its evaluation.
	descLogicPJPerCycle = 0.8
	// eccLogicPJPerAccess is the SECDED encoder/decoder energy per
	// block access.
	eccLogicPJPerAccess = 1.8
	// routingOverhead inflates the floorplan for inter-bank routing.
	routingOverhead = 1.10
)

// AccessResult reports one block movement.
type AccessResult struct {
	// Cycles is the total access latency seen by the requester:
	// controller + wire flight + array + transfer + codec logic.
	// int64 (matching link.Cost.Cycles) so callers can accumulate
	// totals across billions of accesses without wrapping a 32-bit int.
	Cycles int64
	// TransferCycles is the data-transfer (link occupancy) component.
	TransferCycles int64
	// EnergyJ is the total dynamic energy of the access.
	EnergyJ float64
	// HTreeJ is the interconnect component of EnergyJ.
	HTreeJ float64
	// ArrayJ is the SRAM array component of EnergyJ.
	ArrayJ float64
	// Flips is the wire activity of the transfer.
	Flips link.FlipCount
}

// Model is the evaluated cache.
type Model struct {
	cfg Config
	// traits is the configured scheme's registered self-description: the
	// model's only source of per-scheme knowledge (interface area, codec
	// latency, history costs). No scheme name is ever switched on here.
	traits link.Traits
	bank   *sram.Bank

	readLinks  []link.Link // per bank
	writeLinks []link.Link // per bank

	chipW, chipH float64   // floorplan, mm
	pathMM       []float64 // controller-to-bank H-tree length per bank

	// Per-bank wire constants and the array latency, fixed at New so
	// Access does not rebuild the bank's wire model on every transfer.
	perFlipJ     []float64 // H-tree energy per wire flip
	flightCycles []int     // one-way wire propagation latency
	arrayCycles  int       // mat access latency

	// What every transfer to a bank pays whatever its data, also fixed
	// at New: the address bus energy, the array energy of a read and of
	// a write (ECC included), and the latency outside the link.
	addrJ        []float64
	readArrayJ   float64
	writeArrayJ  float64
	fixedCycles  []int64
	historyWrite bool // writes broadcast to the per-wire history store

	eccParityWires int
	eccScale       float64 // encoded bits / data bits

	// mx holds the scheme's pre-resolved telemetry instruments. Always
	// non-nil; its instruments are nil (no-op) until SetMetrics installs
	// a registry, so Access increments unconditionally.
	mx linkMetrics

	// Accumulated statistics.
	accesses   uint64
	energyJ    float64
	htreeJ     float64
	arrayJ     float64
	xferCycles uint64
}

// linkMetrics is the codec layer's instrument set: per-scheme transfer
// activity totals and a transfer-cycle histogram. Instruments are
// registered under "link/<scheme>/…" so a registry shared across a whole
// descbench sweep aggregates activity by scheme.
type linkMetrics struct {
	accesses     *metrics.Counter
	flipsData    *metrics.Counter
	flipsControl *metrics.Counter
	flipsSync    *metrics.Counter
	xferCycles   *metrics.Counter
	cyclesHist   *metrics.Histogram
}

// SetMetrics points the model's telemetry at reg (nil detaches it).
// Metrics are write-only observation: nothing the model computes ever
// reads an instrument, so energy and latency results are identical with
// or without a registry installed.
func (m *Model) SetMetrics(reg *metrics.Registry) {
	prefix := "link/" + m.cfg.Scheme + "/"
	m.mx = linkMetrics{
		accesses:     reg.Counter(prefix + "accesses"),
		flipsData:    reg.Counter(prefix + "flips_data"),
		flipsControl: reg.Counter(prefix + "flips_control"),
		flipsSync:    reg.Counter(prefix + "flips_sync"),
		xferCycles:   reg.Counter(prefix + "transfer_cycles"),
		cyclesHist:   reg.Histogram(prefix+"transfer_cycles_hist", metrics.ExpBuckets(1, 1024)),
	}
}

// New builds the model.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.Banks <= 0 || cfg.CapacityBytes <= 0 {
		return nil, fmt.Errorf("cachemodel: invalid geometry %+v", cfg)
	}
	if cfg.CapacityBytes%cfg.Banks != 0 {
		return nil, fmt.Errorf("cachemodel: capacity %d not divisible by %d banks", cfg.CapacityBytes, cfg.Banks)
	}
	// Mats hold 64KB each (Figure 6's 64-bit mat interface over a
	// 64KB array); banks organize them into up to four subbanks
	// (Figure 7). The paper's 8MB / 8-bank design point yields the
	// figure's 4 subbanks x 4 mats; smaller banks (S-NUCA-1's 64KB, the
	// capacity sweep's low end) shrink their periphery accordingly.
	bankCap := cfg.CapacityBytes / cfg.Banks
	totalMats := bankCap >> 16
	if totalMats < 1 {
		totalMats = 1
	}
	subbanks := 4
	if totalMats < 4 {
		subbanks = totalMats
	}
	bank, err := sram.NewBank(sram.Organization{
		CapacityBytes: bankCap,
		Subbanks:      subbanks,
		Mats:          (totalMats + subbanks - 1) / subbanks,
		Node:          node,
		Cells:         cfg.Cells,
		Periphery:     cfg.Periphery,
	})
	if err != nil {
		return nil, err
	}
	d, ok := link.Lookup(cfg.Scheme)
	if !ok {
		// link.New composes the unknown-scheme error (the registry
		// listing plus close-match suggestions).
		_, err := link.New(link.Spec{Scheme: cfg.Scheme})
		return nil, err
	}
	m := &Model{cfg: cfg, traits: d.Traits, bank: bank, eccScale: 1}

	if cfg.ECC.Enabled {
		if blockBytes*8%cfg.ECC.SegmentBits != 0 {
			return nil, fmt.Errorf("cachemodel: block of %d bits not divisible into ECC segments of %d", blockBytes*8, cfg.ECC.SegmentBits)
		}
		m.eccParityWires = cfg.ECC.parityBits()
		segs := blockBytes * 8 / cfg.ECC.SegmentBits
		encoded := blockBytes*8 + segs*m.eccParityWires
		m.eccScale = float64(encoded) / float64(blockBytes*8)
	}

	spec := link.Spec{
		Scheme:      cfg.Scheme,
		BlockBits:   blockBytes * 8,
		DataWires:   cfg.DataWires,
		ChunkBits:   cfg.ChunkBits,
		SegmentBits: cfg.SegmentBits,
	}
	m.readLinks = make([]link.Link, cfg.Banks)
	m.writeLinks = make([]link.Link, cfg.Banks)
	for b := 0; b < cfg.Banks; b++ {
		if m.readLinks[b], err = link.New(spec); err != nil {
			return nil, err
		}
		if m.writeLinks[b], err = link.New(spec); err != nil {
			return nil, err
		}
	}
	m.floorplan()
	m.perFlipJ = make([]float64, cfg.Banks)
	m.flightCycles = make([]int, cfg.Banks)
	m.addrJ = make([]float64, cfg.Banks)
	m.fixedCycles = make([]int64, cfg.Banks)
	m.arrayCycles = bank.AccessCycles(cfg.ClockGHz)
	for b := range m.pathMM {
		w := m.wireFor(b)
		m.perFlipJ[b] = w.EnergyPerFlipJ()
		m.flightCycles[b] = w.DelayCycles(cfg.ClockGHz)
		// Address and control in conventional binary (Section 3.2.1).
		m.addrJ[b] = addrWires * addrActivity * m.perFlipJ[b]
		m.fixedCycles[b] = int64(controllerCycles + 2*m.flightCycles[b] + m.arrayCycles + m.traits.CodecCycles)
	}
	m.readArrayJ = m.arrayEnergyJ(bank.ReadEnergyJ(blockBytes * 8))
	m.writeArrayJ = m.arrayEnergyJ(bank.WriteEnergyJ(blockBytes * 8))
	m.historyWrite, _ = m.tracksHistory()
	return m, nil
}

// arrayEnergyJ widens a block's array energy to the ECC-encoded bits,
// which are stored and read too, and adds the ECC logic.
func (m *Model) arrayEnergyJ(blockJ float64) float64 {
	arrayJ := blockJ * m.eccScale
	if m.cfg.ECC.Enabled {
		arrayJ += eccLogicPJPerAccess * 1e-12
	}
	return arrayJ
}

// floorplan lays banks out in a near-square grid and derives per-bank
// H-tree path lengths. The cache controller sits at the middle of the
// bottom edge (Figure 7).
func (m *Model) floorplan() {
	b := m.cfg.Banks
	cols := int(math.Ceil(math.Sqrt(float64(b))))
	rows := (b + cols - 1) / cols
	dim := m.bank.DimensionMM() * math.Sqrt(routingOverhead)
	m.chipW = float64(cols) * dim
	m.chipH = float64(rows) * dim
	m.pathMM = make([]float64, b)
	if m.cfg.NUCA {
		// S-NUCA-1: private channels, per-bank Manhattan distance.
		for i := 0; i < b; i++ {
			r, c := i/cols, i%cols
			x := (float64(c)+0.5)*dim - m.chipW/2
			y := (float64(r) + 0.5) * dim
			m.pathMM[i] = math.Abs(x) + y + 0.5*dim
		}
		return
	}
	// UCA: a balanced H-tree reaches every bank through the same wire
	// length (the worst-case path), plus the bank-internal trees.
	worst := m.chipW/2 + m.chipH + 0.5*dim
	for i := 0; i < b; i++ {
		m.pathMM[i] = worst
	}
}

// Config returns the effective (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }

// Banks returns the bank count.
func (m *Model) Banks() int { return m.cfg.Banks }

// BlockBytes returns the block size.
func (m *Model) BlockBytes() int { return blockBytes }

// AreaMM2 returns the cache area including the DESC interface overhead
// when the configured scheme uses per-mat TX/RX interfaces (Figure 17:
// ~1% of the 8MB cache).
func (m *Model) AreaMM2() float64 {
	area := m.chipW * m.chipH
	if m.traits.DESCInterface {
		// One TX/RX interface per mat plus one at the controller,
		// 2120 um^2 each (Figure 17, scaled 45->22nm by area/4).
		perIface := 2120e-6 / 4 // mm^2
		org := m.bank.Organization()
		ifaces := float64(m.cfg.Banks*org.Subbanks*org.Mats + 1)
		area += perIface * ifaces
	}
	return area
}

// tracksHistory reports whether the scheme keeps per-wire value history at
// the controller, paying the write-broadcast and tracking-store costs of
// Section 5.2, and that history class's tracking-store leakage. Both flow
// from the registered HistoryClass trait: last-value keeps one register
// per wire; adaptive tracks full frequency estimators, an 8x larger
// store.
func (m *Model) tracksHistory() (bool, float64) {
	return m.traits.History != link.HistoryNone,
		lastValueStoreLeakW * m.traits.History.LeakFactor()
}

// wireFor returns the H-tree wire model for the given bank.
func (m *Model) wireFor(bankID int) wiremodel.Wire {
	return wiremodel.NewWire(node, m.cfg.Periphery, m.pathMM[bankID])
}

// FlightCycles returns the one-way wire propagation latency to a bank.
func (m *Model) FlightCycles(bankID int) int { return m.flightCycles[bankID] }

// ArrayCycles returns the mat access latency.
func (m *Model) ArrayCycles() int { return m.arrayCycles }

// Access models one block movement between the controller and bankID.
// The block is routed through the bank's link, so wire history and value
// skipping behave exactly as in hardware. isWrite selects direction (and
// write energy in the arrays).
func (m *Model) Access(bankID int, block []byte, isWrite bool) AccessResult {
	if bankID < 0 || bankID >= m.cfg.Banks {
		panic(fmt.Sprintf("cachemodel: bank %d of %d", bankID, m.cfg.Banks))
	}
	l := m.readLinks[bankID]
	if isWrite {
		l = m.writeLinks[bankID]
	}
	cost := l.Send(block)

	// Data/control/sync flips, scaled by the ECC transfer widening.
	dataJ := float64(cost.Flips.Total()) * m.perFlipJ[bankID] * m.eccScale
	htreeJ := dataJ + m.addrJ[bankID]
	if m.traits.DESCInterface {
		htreeJ += descLogicPJPerCycle * 1e-12 * float64(cost.Cycles)
	}
	arrayJ := m.readArrayJ
	if isWrite {
		arrayJ = m.writeArrayJ
		if m.historyWrite {
			htreeJ *= lastValueWriteBroadcastFactor
		}
	}

	res := AccessResult{
		Cycles:         m.fixedCycles[bankID] + cost.Cycles,
		TransferCycles: cost.Cycles,
		EnergyJ:        htreeJ + arrayJ,
		HTreeJ:         htreeJ,
		ArrayJ:         arrayJ,
		Flips:          cost.Flips,
	}

	m.accesses++
	m.energyJ += res.EnergyJ
	m.htreeJ += htreeJ
	m.arrayJ += arrayJ
	m.xferCycles += uint64(cost.Cycles)

	m.mx.accesses.Inc()
	m.mx.flipsData.Add(cost.Flips.Data)
	m.mx.flipsControl.Add(cost.Flips.Control)
	m.mx.flipsSync.Add(cost.Flips.Sync)
	m.mx.xferCycles.Add(uint64(cost.Cycles))
	m.mx.cyclesHist.Observe(uint64(cost.Cycles))
	return res
}

// TagProbeCycles returns the latency of a tag-only probe (miss detection):
// no data transfer.
func (m *Model) TagProbeCycles(bankID int) int {
	return controllerCycles + 2*m.FlightCycles(bankID) + m.ArrayCycles()
}

// LeakageW returns the cache's total standby power: banks plus H-tree
// repeaters plus scheme-specific storage.
func (m *Model) LeakageW() float64 {
	leak := float64(m.cfg.Banks) * m.bank.LeakageW()
	// Repeater leakage across all routed wires.
	wires := float64(m.totalWires())
	for b := 0; b < m.cfg.Banks; b++ {
		w := m.wireFor(b)
		leak += w.LeakageW() * wires / float64(m.cfg.Banks)
	}
	if hist, storeLeak := m.tracksHistory(); hist {
		leak += storeLeak
	}
	return leak
}

// totalWires counts routed wires: read + write data, scheme extras, ECC
// parity, and the address bus.
func (m *Model) totalWires() int {
	l := m.readLinks[0]
	perDir := l.DataWires() + l.ExtraWires() + m.eccParityWires
	return 2*perDir + addrWires
}

// Stats returns accumulated dynamic-energy statistics.
func (m *Model) Stats() (accesses uint64, energyJ, htreeJ, arrayJ float64, xferCycles uint64) {
	return m.accesses, m.energyJ, m.htreeJ, m.arrayJ, m.xferCycles
}
