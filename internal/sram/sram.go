// Package sram models the storage arrays of the last-level cache: mats,
// subbanks, and banks (Figure 7), with per-access dynamic energy, leakage
// power, area, and access delay, parameterized by technology node and
// ITRS device class (Section 4.1).
//
// DESC leaves the arrays untouched — data is stored in standard binary —
// so this model is shared unchanged by every transfer scheme; only the
// H-tree traffic on top differs.
package sram

import (
	"fmt"
	"math"

	"desc/internal/wiremodel"
)

// Organization describes one cache bank's internal structure, following
// the paper's example LLC: banks divided into subbanks divided into mats.
type Organization struct {
	// CapacityBytes is the bank's data capacity.
	CapacityBytes int
	// Subbanks per bank (4 in Figure 7).
	Subbanks int
	// Mats per subbank (4 in Figure 7).
	Mats int
	// Node is the technology node.
	Node wiremodel.Node
	// Cells is the device class of the storage cells.
	Cells wiremodel.DeviceClass
	// Periphery is the device class of decoders, sense amplifiers, and
	// drivers.
	Periphery wiremodel.DeviceClass
}

// Validate checks the organization.
func (o Organization) Validate() error {
	if o.CapacityBytes <= 0 {
		return fmt.Errorf("sram: bank capacity %d", o.CapacityBytes)
	}
	if o.Subbanks <= 0 || o.Mats <= 0 {
		return fmt.Errorf("sram: %d subbanks x %d mats", o.Subbanks, o.Mats)
	}
	for _, c := range []wiremodel.DeviceClass{o.Cells, o.Periphery} {
		if c != wiremodel.HP && c != wiremodel.LOP && c != wiremodel.LSTP {
			return fmt.Errorf("sram: unknown device class in %v cells, %v periphery; want HP, LOP or LSTP",
				o.Cells, o.Periphery)
		}
	}
	return nil
}

// Calibration constants. Absolute values are representative of 22nm SRAM
// macros; experiments depend on their ratios (see package wiremodel).
const (
	// tagOverhead inflates capacity for tags, valid/coherence state and
	// (optionally) ECC storage.
	tagOverhead = 1.09
	// areaEfficiency is the fraction of mat area that is cells (the
	// rest is decoders, sense amps, wordline drivers).
	areaEfficiency = 0.55
	// cellLeakPW is per-cell leakage for LSTP cells in picowatts.
	cellLeakPW = 2.4
	// periLeakUWPerMat is per-mat peripheral leakage for LSTP periphery
	// in microwatts.
	periLeakUWPerMat = 48.0
	// bankLeakUWFixed is the per-bank fixed periphery (bank controller,
	// address decode, port logic) leakage in microwatts — the overhead
	// that makes very high bank counts lose energy (Figure 25).
	bankLeakUWFixed = 130.0
	// readEnergyFJPerBit is the bitline + sense energy to read one bit
	// out of a mat at nominal (LSTP, 22nm) conditions.
	readEnergyFJPerBit = 28.0
	// decodeEnergyPJ is the row-decode + wordline energy per mat
	// activation.
	decodeEnergyPJ = 2.4
	// baseAccessPs is the HP-class mat access time (decode + bitline +
	// sense) at 22nm.
	baseAccessPs = 480.0
)

// Bank is the evaluated storage model for one bank.
type Bank struct {
	org Organization
}

// NewBank validates org and builds the model.
func NewBank(org Organization) (*Bank, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	return &Bank{org: org}, nil
}

// Organization returns the bank's configuration.
func (b *Bank) Organization() Organization { return b.org }

// Bits returns the stored bits including tag overhead.
func (b *Bank) Bits() float64 {
	return float64(b.org.CapacityBytes) * 8 * tagOverhead
}

// AreaMM2 returns the bank area.
func (b *Bank) AreaMM2() float64 {
	cellArea := b.Bits() * b.org.Node.CellAreaUM2 // um^2
	return cellArea / areaEfficiency / 1e6
}

// DimensionMM returns the bank's edge length assuming a square aspect.
func (b *Bank) DimensionMM() float64 { return math.Sqrt(b.AreaMM2()) }

// LeakageW returns the bank's standby power: cells plus per-mat periphery,
// each scaled by its device class.
func (b *Bank) LeakageW() float64 {
	cells := b.Bits() * cellLeakPW * 1e-12 * b.org.Cells.LeakFactor()
	mats := float64(b.org.Subbanks * b.org.Mats)
	peri := (mats*periLeakUWPerMat + bankLeakUWFixed) * 1e-6 * b.org.Periphery.LeakFactor()
	return cells + peri
}

// ReadEnergyJ returns the array-side dynamic energy to read `bits` bits
// (the H-tree transfer energy is modeled separately by the cache model).
// Scaling by Vdd^2 captures node differences; the periphery class sets the
// dynamic factor.
func (b *Bank) ReadEnergyJ(bits int) float64 {
	v := b.org.Node.VddV
	vScale := (v * v) / (0.83 * 0.83) // normalized to 22nm nominal
	mats := activeMats(bits)
	e := (float64(bits)*readEnergyFJPerBit*1e-15 + mats*decodeEnergyPJ*1e-12) * vScale
	return e * b.org.Periphery.DynFactor()
}

// WriteEnergyJ returns the array-side dynamic energy to write `bits` bits.
// Writes drive full bitline swings: costlier than reads.
func (b *Bank) WriteEnergyJ(bits int) float64 {
	return 1.25 * b.ReadEnergyJ(bits)
}

// activeMats estimates how many mats activate for an access of the given
// width (64-bit mat interfaces, as in Figure 6).
func activeMats(bits int) float64 {
	m := float64(bits) / 64.0
	if m < 1 {
		return 1
	}
	return m
}

// AccessPs returns the mat access time (without H-tree flight time),
// scaled by the slower of the cell and periphery device classes.
func (b *Bank) AccessPs() float64 {
	f := b.org.Cells.DelayFactor()
	if p := b.org.Periphery.DelayFactor(); p > f {
		f = p
	}
	// Larger banks have longer internal wordlines/bitlines: scale with
	// the square root of capacity relative to a 1MB reference bank.
	size := math.Sqrt(float64(b.org.CapacityBytes) / (1 << 20))
	if size < 0.5 {
		size = 0.5
	}
	return baseAccessPs * f * size
}

// AccessCycles returns AccessPs in whole clock cycles at the given
// frequency, minimum 1.
func (b *Bank) AccessCycles(clockGHz float64) int {
	periodPs := 1000.0 / clockGHz
	c := int(b.AccessPs()/periodPs) + 1
	return c
}
