package sram

import (
	"strings"
	"testing"

	"desc/internal/wiremodel"
)

func bank(t *testing.T, capacity int, cells, peri wiremodel.DeviceClass) *Bank {
	t.Helper()
	b, err := NewBank(Organization{
		CapacityBytes: capacity, Subbanks: 4, Mats: 4,
		Node: wiremodel.Node22, Cells: cells, Periphery: peri,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValidation(t *testing.T) {
	if _, err := NewBank(Organization{CapacityBytes: 0, Subbanks: 4, Mats: 4}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewBank(Organization{CapacityBytes: 1 << 20, Subbanks: 0, Mats: 4}); err == nil {
		t.Error("zero subbanks accepted")
	}
	for _, org := range []Organization{
		{CapacityBytes: 1 << 20, Subbanks: 4, Mats: 4, Cells: wiremodel.DeviceClass(3)},
		{CapacityBytes: 1 << 20, Subbanks: 4, Mats: 4, Periphery: wiremodel.DeviceClass(-1)},
	} {
		_, err := NewBank(org)
		if err == nil || !strings.HasPrefix(err.Error(), "sram: unknown ") {
			t.Errorf("cells %v, periphery %v: error %v, want an sram: unknown device class error", org.Cells, org.Periphery, err)
		}
	}
}

// TestAreaMagnitude: an 8MB cache at 22nm occupies on the order of 10-20
// mm^2 (the figure the floorplan and H-tree lengths build on).
func TestAreaMagnitude(t *testing.T) {
	b := bank(t, 1<<20, wiremodel.LSTP, wiremodel.LSTP) // one of 8 banks
	total := 8 * b.AreaMM2()
	if total < 5 || total > 40 {
		t.Errorf("8MB cache area %.1f mm^2 outside [5,40]", total)
	}
	if b.DimensionMM() <= 0 {
		t.Error("non-positive bank dimension")
	}
}

// TestLeakageByClass: LSTP cells keep an 8MB cache's standby power in the
// mW range; HP multiplies it by orders of magnitude (the Figure 14
// motivation for LSTP-LSTP).
func TestLeakageByClass(t *testing.T) {
	lstp := bank(t, 1<<20, wiremodel.LSTP, wiremodel.LSTP).LeakageW() * 8
	hp := bank(t, 1<<20, wiremodel.HP, wiremodel.HP).LeakageW() * 8
	if lstp <= 0 || lstp > 0.1 {
		t.Errorf("LSTP 8MB leakage %v W outside (0, 0.1]", lstp)
	}
	if hp/lstp < 50 {
		t.Errorf("HP/LSTP cache leakage ratio %.0f; expected orders of magnitude", hp/lstp)
	}
}

func TestReadWriteEnergy(t *testing.T) {
	b := bank(t, 1<<20, wiremodel.LSTP, wiremodel.LSTP)
	r := b.ReadEnergyJ(512)
	w := b.WriteEnergyJ(512)
	if r <= 0 {
		t.Fatal("non-positive read energy")
	}
	if w <= r {
		t.Error("writes should cost more than reads")
	}
	// Reading more bits costs more.
	if b.ReadEnergyJ(64) >= r {
		t.Error("narrower read should cost less")
	}
	// Block read energy is tens of pJ at this node — well under the
	// H-tree transfer energy, per Figure 2's breakdown.
	if r > 100e-12 {
		t.Errorf("512-bit read energy %v J suspiciously high", r)
	}
	// HP periphery burns more per access.
	hp := bank(t, 1<<20, wiremodel.LSTP, wiremodel.HP)
	if hp.ReadEnergyJ(512) <= r {
		t.Error("HP periphery should cost more per read")
	}
}

// TestAccessTime: LSTP arrays are ~2x slower than HP (footnote 3), and
// bigger banks are slower.
func TestAccessTime(t *testing.T) {
	lstp := bank(t, 1<<20, wiremodel.LSTP, wiremodel.LSTP)
	hp := bank(t, 1<<20, wiremodel.HP, wiremodel.HP)
	ratio := lstp.AccessPs() / hp.AccessPs()
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("LSTP/HP access ratio %.2f, want about 2", ratio)
	}
	big := bank(t, 8<<20, wiremodel.LSTP, wiremodel.LSTP)
	if big.AccessPs() <= lstp.AccessPs() {
		t.Error("8MB bank should be slower than 1MB bank")
	}
	if lstp.AccessCycles(3.2) < 1 {
		t.Error("access under one cycle")
	}
}
