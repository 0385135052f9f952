package bus

import (
	"testing"
	"testing/quick"
)

func TestBusToggleAndSet(t *testing.T) {
	t.Parallel()
	b := New(4)
	b.Toggle(0)
	if !b.State(0) || b.Flips(0) != 1 {
		t.Error("toggle did not flip wire 0")
	}
	if n := b.Set(0, true); n != 0 {
		t.Error("Set to same level recorded a flip")
	}
	if n := b.Set(0, false); n != 1 {
		t.Error("Set to new level did not record a flip")
	}
	if b.TotalFlips() != 2 {
		t.Errorf("TotalFlips = %d, want 2", b.TotalFlips())
	}
}

func TestBusSetWordHammingDistance(t *testing.T) {
	t.Parallel()
	b := New(8)
	// 01010011 from all-zero: 4 flips (paper Figure 3a).
	word := []bool{true, true, false, false, true, false, true, false}
	setWord := func() int {
		n := 0
		for i, v := range word {
			n += b.Set(i, v)
		}
		return n
	}
	if n := setWord(); n != 4 {
		t.Errorf("word flips = %d, want 4", n)
	}
	// Same word again: 0 flips.
	if n := setWord(); n != 0 {
		t.Errorf("repeat word flips = %d, want 0", n)
	}
}

func TestBusResetCountersKeepsState(t *testing.T) {
	t.Parallel()
	b := New(2)
	b.Toggle(1)
	b.ResetCounters()
	if b.TotalFlips() != 0 || b.Flips(1) != 0 {
		t.Error("counters not reset")
	}
	if !b.State(1) {
		t.Error("ResetCounters changed wire state")
	}
	b.Ground()
	if b.State(1) {
		t.Error("Ground did not clear state")
	}
	if b.TotalFlips() != 0 {
		t.Error("Ground recorded flips")
	}
}

func TestStrobe(t *testing.T) {
	t.Parallel()
	var s Strobe
	s.Toggle()
	s.Toggle()
	s.Toggle()
	if s.Flips() != 3 || !s.State() {
		t.Errorf("strobe flips=%d state=%v", s.Flips(), s.State())
	}
	s.ResetCounter()
	if s.Flips() != 0 || !s.State() {
		t.Error("ResetCounter wrong")
	}
}

func TestToggleGenerator(t *testing.T) {
	t.Parallel()
	var g ToggleGenerator
	if g.Clock(false) != false {
		t.Error("disabled clock toggled output")
	}
	if g.Clock(true) != true || g.Clock(true) != false {
		t.Error("enabled clocks did not alternate")
	}
	if g.Output() != false {
		t.Error("Output disagrees with last Clock")
	}
}

func TestToggleDetector(t *testing.T) {
	t.Parallel()
	var d ToggleDetector
	if d.Clock(true) {
		t.Error("first cycle reported a toggle")
	}
	if d.Clock(true) {
		t.Error("steady level reported a toggle")
	}
	if !d.Clock(false) {
		t.Error("level change not detected")
	}
	var p ToggleDetector
	p.Prime(false)
	if !p.Clock(true) {
		t.Error("primed detector missed first-edge toggle")
	}
}

func TestGeneratorDetectorPair(t *testing.T) {
	t.Parallel()
	// Every generator toggle must be seen by a detector watching the
	// wire, regardless of the enable pattern.
	f := func(pattern []bool) bool {
		var g ToggleGenerator
		var d ToggleDetector
		d.Prime(false)
		for _, en := range pattern {
			level := g.Clock(en)
			if d.Clock(level) != en {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestToggleRegenerator(t *testing.T) {
	t.Parallel()
	var r ToggleRegenerator
	// Prime both branches at 0 (first Clock establishes references).
	r.Clock(false, false, false)
	// Branch 0 toggles while selected: upstream must toggle.
	out := r.Clock(true, false, false)
	if !out || r.OutputFlips() != 1 {
		t.Errorf("selected-branch toggle not forwarded: out=%v flips=%d", out, r.OutputFlips())
	}
	// Branch 1 toggles while branch 0 selected: upstream must hold.
	out = r.Clock(true, true, false)
	if out != true || r.OutputFlips() != 1 {
		t.Errorf("unselected-branch toggle forwarded: out=%v flips=%d", out, r.OutputFlips())
	}
	// Select branch 1; its next toggle forwards.
	out = r.Clock(true, false, true)
	if out != false || r.OutputFlips() != 2 {
		t.Errorf("branch-1 toggle not forwarded: out=%v flips=%d", out, r.OutputFlips())
	}
}

func TestSyncStrobe(t *testing.T) {
	t.Parallel()
	var s SyncStrobe
	flips := 0
	for i := 0; i < 10; i++ {
		if s.Clock() {
			flips++
		}
	}
	if flips != 5 || s.Flips() != 5 {
		t.Errorf("10 cycles produced %d strobe flips, want 5", flips)
	}
	s.ResetPhase()
	if !s.Clock() {
		t.Error("first cycle after ResetPhase did not toggle")
	}
}

func TestSyncFlipsFor(t *testing.T) {
	t.Parallel()
	cases := map[int64]uint64{0: 0, -3: 0, 1: 1, 2: 1, 3: 2, 6: 3, 7: 4}
	for cycles, want := range cases {
		if got := SyncFlipsFor(cycles); got != want {
			t.Errorf("SyncFlipsFor(%d) = %d, want %d", cycles, got, want)
		}
	}
	// Agreement with the cycle-level SyncStrobe for every length.
	for cycles := int64(1); cycles <= 64; cycles++ {
		var s SyncStrobe
		for i := int64(0); i < cycles; i++ {
			s.Clock()
		}
		if s.Flips() != SyncFlipsFor(cycles) {
			t.Errorf("cycles=%d: strobe %d flips, formula %d", cycles, s.Flips(), SyncFlipsFor(cycles))
		}
	}
}
