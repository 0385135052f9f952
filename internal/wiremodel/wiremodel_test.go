package wiremodel

import (
	"math"
	"testing"
)

// TestTable3Parameters pins the technology parameters the paper reports.
func TestTable3Parameters(t *testing.T) {
	if Node45.VddV != 1.1 || Node45.FO4ps != 20.25 {
		t.Errorf("45nm: Vdd=%v FO4=%v, want 1.1V / 20.25ps (Table 3)", Node45.VddV, Node45.FO4ps)
	}
	if Node22.VddV != 0.83 || Node22.FO4ps != 11.75 {
		t.Errorf("22nm: Vdd=%v FO4=%v, want 0.83V / 11.75ps (Table 3)", Node22.VddV, Node22.FO4ps)
	}
}

func TestDeviceClassNames(t *testing.T) {
	for i, want := range []string{"HP", "LOP", "LSTP"} {
		if got := DeviceClasses[i].String(); got != want {
			t.Errorf("DeviceClasses[%d] = %q, want %q", i, got, want)
		}
	}
	if got := DeviceClass(9).String(); got != "DeviceClass(9)" {
		t.Errorf("unknown class = %q", got)
	}
}

// TestLeakageOrdering: the defining property of the classes — HP leaks
// orders of magnitude more than LSTP (Section 4.1).
func TestLeakageOrdering(t *testing.T) {
	if !(HP.LeakFactor() > LOP.LeakFactor() && LOP.LeakFactor() > LSTP.LeakFactor()) {
		t.Error("leakage ordering violated")
	}
	if HP.LeakFactor()/LSTP.LeakFactor() < 100 {
		t.Errorf("HP/LSTP leakage ratio %v; the paper cites two orders of magnitude", HP.LeakFactor())
	}
}

// TestDelayOrdering: LSTP is about 2x slower than HP (footnote 3).
func TestDelayOrdering(t *testing.T) {
	if LSTP.DelayFactor()/HP.DelayFactor() != 2.0 {
		t.Errorf("LSTP/HP delay = %v, want 2.0", LSTP.DelayFactor()/HP.DelayFactor())
	}
	if LOP.DelayFactor() <= HP.DelayFactor() || LOP.DelayFactor() >= LSTP.DelayFactor() {
		t.Error("LOP delay should sit between HP and LSTP")
	}
}

func TestWireEnergyScalesWithLengthAndVdd(t *testing.T) {
	w1 := NewWire(Node22, LSTP, 1)
	w2 := NewWire(Node22, LSTP, 2)
	if math.Abs(w2.EnergyPerFlipJ()/w1.EnergyPerFlipJ()-2) > 1e-9 {
		t.Error("flip energy not linear in length")
	}
	e22 := NewWire(Node22, LSTP, 1).EnergyPerFlipJ()
	e45 := NewWire(Node45, LSTP, 1).EnergyPerFlipJ()
	// 45nm has higher Vdd and higher cap per mm: more energy per flip.
	if e45 <= e22 {
		t.Errorf("45nm flip energy %v should exceed 22nm %v", e45, e22)
	}
	// Sanity magnitude: a few mm of global wire costs around a pJ.
	e := NewWire(Node22, LSTP, 5).EnergyPerFlipJ()
	if e < 0.1e-12 || e > 10e-12 {
		t.Errorf("5mm flip energy %v J outside [0.1,10] pJ", e)
	}
}

func TestWireDelay(t *testing.T) {
	w := NewWire(Node22, HP, 3)
	if w.DelayPs() <= 0 {
		t.Error("no delay on a 3mm wire")
	}
	// LSTP repeaters double the delay.
	ws := NewWire(Node22, LSTP, 3)
	if math.Abs(ws.DelayPs()/w.DelayPs()-2) > 1e-9 {
		t.Error("device class delay scaling wrong")
	}
	if NewWire(Node22, HP, 0).DelayCycles(3.2) != 0 {
		t.Error("zero-length wire has flight cycles")
	}
	if w.DelayCycles(3.2) < 1 {
		t.Error("3mm wire under 1 cycle at 3.2GHz")
	}
}

func TestWireLeakage(t *testing.T) {
	lstp := NewWire(Node22, LSTP, 4).LeakageW()
	hp := NewWire(Node22, HP, 4).LeakageW()
	if hp/lstp != 200 {
		t.Errorf("repeater leakage ratio %v, want 200", hp/lstp)
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative length accepted")
		}
	}()
	NewWire(Node22, LSTP, -1)
}
