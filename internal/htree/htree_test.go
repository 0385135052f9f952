package htree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"desc/internal/wiremodel"
)

func tree(t *testing.T, leaves, wires int) *Tree {
	t.Helper()
	tr, err := New(Config{
		Leaves: leaves, Wires: wires, RootLengthMM: 2.0,
		Node: wiremodel.Node22, Class: wiremodel.LSTP,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Leaves: 3, Wires: 8, RootLengthMM: 1},
		{Leaves: 0, Wires: 8, RootLengthMM: 1},
		{Leaves: 4, Wires: 0, RootLengthMM: 1},
		{Leaves: 4, Wires: 8, RootLengthMM: 0},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGeometry(t *testing.T) {
	tr := tree(t, 16, 64)
	if tr.Levels() != 5 {
		t.Errorf("16 leaves -> %d levels, want 5", tr.Levels())
	}
	// Each level halves the segment length.
	for l := 1; l < tr.Levels(); l++ {
		if math.Abs(tr.SegmentLengthMM(l)*2-tr.SegmentLengthMM(l-1)) > 1e-12 {
			t.Fatalf("level %d length %v not half of level %d", l, tr.SegmentLengthMM(l), l-1)
		}
	}
	want := 2.0 * (2 - math.Pow(2, -4))
	if math.Abs(tr.PathLengthMM()-want) > 1e-9 {
		t.Errorf("path length %v, want %v", tr.PathLengthMM(), want)
	}
}

// TestTransferTouchesOnlyPath: a transfer to one leaf flips exactly one
// segment per level and leaves other leaves' segments untouched.
func TestTransferTouchesOnlyPath(t *testing.T) {
	tr := tree(t, 8, 64)
	toggles := make([]uint64, 1)
	toggles[0] = 0b1011 // three wires flip
	e := tr.Transfer(5, toggles)
	if e <= 0 {
		t.Fatal("no energy for a real transfer")
	}
	for l := 0; l < tr.Levels(); l++ {
		if tr.flipsPerLevel[l] != 3 {
			t.Errorf("level %d flips = %d, want 3", l, tr.flipsPerLevel[l])
		}
	}
	// The target leaf's segment changed; every other leaf's did not.
	for leaf := 0; leaf < 8; leaf++ {
		got := tr.State(leaf, 0) || tr.State(leaf, 1) || tr.State(leaf, 3)
		if leaf == 5 && !got {
			t.Error("target leaf segment did not toggle")
		}
		if leaf != 5 && got {
			t.Errorf("leaf %d segment toggled without a transfer", leaf)
		}
	}
}

// TestLeafStateTracksToggleParity: the leaf segment's wire state is the
// XOR of all toggle masks sent to that leaf (the regenerator preserves
// toggle semantics end to end).
func TestLeafStateTracksToggleParity(t *testing.T) {
	tr := tree(t, 4, 128)
	rng := rand.New(rand.NewSource(5))
	want := make([]uint64, 2)
	for i := 0; i < 50; i++ {
		mask := []uint64{rng.Uint64(), rng.Uint64()}
		tr.Transfer(2, mask)
		want[0] ^= mask[0]
		want[1] ^= mask[1]
		// Interleave traffic to other leaves; it must not disturb
		// leaf 2's segment.
		tr.Transfer(0, []uint64{rng.Uint64(), rng.Uint64()})
	}
	for w := 0; w < 128; w++ {
		wantBit := want[w>>6]&(1<<(uint(w)&63)) != 0
		if tr.State(2, w) != wantBit {
			t.Fatalf("leaf 2 wire %d state %v, want %v", w, tr.State(2, w), wantBit)
		}
	}
}

// TestFlatModelMatchesSegmentAccounting: the cache model's simplification
// (flips x full path length) is exact for tree transfers — the invariant
// that justifies it.
func TestFlatModelMatchesSegmentAccounting(t *testing.T) {
	tr := tree(t, 16, 64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		tr.Transfer(rng.Intn(16), []uint64{rng.Uint64()})
	}
	acc, flat := tr.EnergyJ(), tr.SimplifiedEnergyJ()
	if math.Abs(acc-flat)/flat > 1e-9 {
		t.Errorf("segment-accurate %v vs flat %v", acc, flat)
	}
}

// TestRegeneratorSavesEnergy: without branch-selecting regenerators the
// same traffic costs several times more (every toggle floods the whole
// tree).
func TestRegeneratorSavesEnergy(t *testing.T) {
	tr := tree(t, 16, 64)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		tr.Transfer(rng.Intn(16), []uint64{rng.Uint64()})
	}
	ratio := tr.BroadcastEnergyJ() / tr.EnergyJ()
	// 5 levels: whole tree is 5x the root segment; the path is ~1.94x.
	if ratio < 2 || ratio > 4 {
		t.Errorf("broadcast/regenerated ratio %.2f outside [2,4]", ratio)
	}
}

// TestTransferQuick: energy is always non-negative and zero only for
// empty masks.
func TestTransferQuick(t *testing.T) {
	tr := tree(t, 8, 64)
	f := func(leafSeed uint8, mask uint64) bool {
		leaf := int(leafSeed) % 8
		e := tr.Transfer(leaf, []uint64{mask})
		if mask == 0 {
			return e == 0
		}
		return e > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTransferPanics(t *testing.T) {
	tr := tree(t, 8, 64)
	for _, fn := range []func(){
		func() { tr.Transfer(-1, []uint64{0}) },
		func() { tr.Transfer(8, []uint64{0}) },
		func() { tr.Transfer(0, []uint64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
