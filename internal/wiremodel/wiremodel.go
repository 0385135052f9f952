// Package wiremodel is the repository's CACTI-lite: analytical models of
// technology nodes, device classes, and repeated global wires, from which
// the cache model derives H-tree energy, delay, and leakage.
//
// The paper evaluates at 22nm (scaled from 45nm synthesis, Table 3) and
// explores ITRS high-performance (HP), low-operating-power (LOP), and
// low-standby-power (LSTP) device classes for the SRAM cells and the
// peripheral circuitry (Section 4.1, Figure 14). Absolute constants below
// are representative published values; the experiments depend on the
// ratios, which are calibrated to the paper's observations:
//
//   - LSTP arrays are roughly 2x slower than HP but leak orders of
//     magnitude less (footnote 3 and the cited industrial designs);
//   - at the LSTP design point, H-tree dynamic energy dominates L2 energy
//     (~80%, Figure 2).
package wiremodel

import "fmt"

// Node is a process technology node.
type Node struct {
	// Name identifies the node, e.g. "22nm".
	Name string
	// VddV is the supply voltage in volts (Table 3).
	VddV float64
	// FO4ps is the fanout-of-4 inverter delay in picoseconds (Table 3).
	FO4ps float64
	// WireCapFFPerMM is the effective capacitance of a repeated global
	// wire in femtofarads per millimetre, including repeater input
	// capacitance.
	WireCapFFPerMM float64
	// WireDelayPsPerMM is the signal velocity on a repeated global wire.
	WireDelayPsPerMM float64
	// CellAreaUM2 is the 6T SRAM cell area in square micrometres.
	CellAreaUM2 float64
	// RepeaterLeakNWPerMM is the per-wire repeater leakage in nanowatts
	// per millimetre for LSTP repeaters; device classes scale it.
	RepeaterLeakNWPerMM float64
}

// Node45 and Node22 carry the Table 3 parameters.
var (
	Node45 = Node{
		Name: "45nm", VddV: 1.1, FO4ps: 20.25,
		WireCapFFPerMM: 560, WireDelayPsPerMM: 110,
		CellAreaUM2: 0.346, RepeaterLeakNWPerMM: 12,
	}
	Node22 = Node{
		Name: "22nm", VddV: 0.83, FO4ps: 11.75,
		WireCapFFPerMM: 480, WireDelayPsPerMM: 140,
		CellAreaUM2: 0.092, RepeaterLeakNWPerMM: 8,
	}
)

// DeviceClass is an ITRS device flavor used for cells or periphery.
type DeviceClass int

const (
	// LSTP: low standby power. The paper's most energy-efficient choice
	// for both cells and periphery.
	LSTP DeviceClass = iota
	// LOP: low operating power.
	LOP
	// HP: high performance — fastest, leakiest.
	HP
)

// String names the class as the paper's figures do.
func (d DeviceClass) String() string {
	switch d {
	case LSTP:
		return "LSTP"
	case LOP:
		return "LOP"
	case HP:
		return "HP"
	default:
		return fmt.Sprintf("DeviceClass(%d)", int(d))
	}
}

// LeakFactor scales LSTP leakage to this class. The cited low-power RAM
// literature puts HP cell leakage two orders of magnitude above LSTP.
func (d DeviceClass) LeakFactor() float64 {
	switch d {
	case LOP:
		return 20
	case HP:
		return 200
	default:
		return 1
	}
}

// DelayFactor scales HP delay to this class. LSTP arrays are about 2x
// slower than HP (footnote 3).
func (d DeviceClass) DelayFactor() float64 {
	switch d {
	case LSTP:
		return 2.0
	case LOP:
		return 1.4
	default:
		return 1.0
	}
}

// DynFactor scales dynamic access energy: faster devices burn slightly
// more per switching event (wider transistors, higher drive).
func (d DeviceClass) DynFactor() float64 {
	switch d {
	case LOP:
		return 1.05
	case HP:
		return 1.2
	default:
		return 1.0
	}
}

// DeviceClasses lists all classes in sweep order.
var DeviceClasses = []DeviceClass{HP, LOP, LSTP}

// Wire models a repeated global interconnect wire of a given length.
type Wire struct {
	node  Node
	class DeviceClass
	lenMM float64
}

// NewWire builds a wire of lengthMM driven by repeaters of the given
// device class.
func NewWire(node Node, class DeviceClass, lengthMM float64) Wire {
	if lengthMM < 0 {
		panic(fmt.Sprintf("wiremodel: negative wire length %g", lengthMM))
	}
	return Wire{node: node, class: class, lenMM: lengthMM}
}

// EnergyPerFlipJ returns the energy of one full transition:
// E = 1/2 * C * Vdd^2 over the wire's total capacitance, scaled by the
// repeater device class's dynamic factor.
func (w Wire) EnergyPerFlipJ() float64 {
	capF := w.node.WireCapFFPerMM * 1e-15 * w.lenMM
	return 0.5 * capF * w.node.VddV * w.node.VddV * w.class.DynFactor()
}

// DelayPs returns the end-to-end propagation delay.
func (w Wire) DelayPs() float64 {
	return w.node.WireDelayPsPerMM * w.lenMM * w.class.DelayFactor()
}

// DelayCycles returns the propagation delay in whole clock cycles at the
// given frequency, rounded up (wires are pipelined to cycle boundaries).
func (w Wire) DelayCycles(clockGHz float64) int {
	if w.lenMM == 0 {
		return 0
	}
	periodPs := 1000.0 / clockGHz
	d := int(w.DelayPs()/periodPs) + 1
	return d
}

// LeakageW returns the repeater leakage of this single wire.
func (w Wire) LeakageW() float64 {
	return w.node.RepeaterLeakNWPerMM * 1e-9 * w.lenMM * w.class.LeakFactor()
}
