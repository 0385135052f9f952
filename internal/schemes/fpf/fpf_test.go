package fpf

import (
	"bytes"
	"math/rand"
	"testing"

	"desc/internal/link"
	"desc/internal/schemes/lowweight"
)

func newLink(t testing.TB, blockBits, wires, seg int) *lowweight.Link {
	t.Helper()
	l, err := New(blockBits, wires, seg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRoundTrip sends adversarial-then-random traffic and checks the
// receiver recovers every block exactly.
func TestRoundTrip(t *testing.T) {
	for _, geo := range []struct{ blockBits, wires, seg int }{
		{512, 64, 8},
		{512, 64, 2},
		{512, 64, 64},
		{512, 128, 16},
		{64, 16, 4},
	} {
		l := newLink(t, geo.blockBits, geo.wires, geo.seg)
		n := geo.blockBits / 8
		blocks := [][]byte{
			make([]byte, n),
			bytes.Repeat([]byte{0xFF}, n),
			bytes.Repeat([]byte{0xAA}, n),
			make([]byte, n),
		}
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 16; i++ {
			b := make([]byte, n)
			rng.Read(b)
			blocks = append(blocks, b)
		}
		for i, b := range blocks {
			l.Send(b)
			if !bytes.Equal(l.LastDecoded(), b) {
				t.Fatalf("%+v block %d: decoded %x != sent %x", geo, i, l.LastDecoded(), b)
			}
		}
	}
}

// TestZeroDataIdles pins the codebook's point: all-zero data maps to
// all-zero codewords, so a zero block from the reset state flips nothing
// and repeating any block flips nothing (the code is memoryless).
func TestZeroDataIdles(t *testing.T) {
	l := newLink(t, 512, 64, 8)
	if c := l.Send(make([]byte, 64)); c.Flips.Data != 0 || c.Flips.Control != 0 {
		t.Errorf("zero block from reset: %+v flips, want none", c.Flips)
	}
	b := bytes.Repeat([]byte{0x5C}, 64)
	l.Send(b)
	if c := l.Send(b); c.Flips.Data != 0 || c.Flips.Control != 0 {
		t.Errorf("repeated block: %+v flips, want none (memoryless code)", c.Flips)
	}
}

// TestFlipBound checks the structural ceiling: consecutive codewords of
// weight <= k/2 differ in at most k positions, so a beat never flips more
// than k wires per segment.
func TestFlipBound(t *testing.T) {
	const seg = 8
	l := newLink(t, 64, 64, seg) // one beat per Send isolates the bound
	rng := rand.New(rand.NewSource(5))
	b := make([]byte, 8)
	for i := 0; i < 200; i++ {
		rng.Read(b)
		c := l.Send(b)
		if max := uint64(l.Segments() * seg); c.Flips.Data > max {
			t.Fatalf("send %d: %d data flips > %d", i, c.Flips.Data, max)
		}
		if max := uint64(l.Segments()); c.Flips.Control > max {
			t.Fatalf("send %d: %d control flips > %d", i, c.Flips.Control, max)
		}
	}
}

// TestResetClearsState: after Reset the wire state is the power-on state,
// so a zero block is free again even after arbitrary traffic.
func TestResetClearsState(t *testing.T) {
	l := newLink(t, 512, 64, 8)
	l.Send(bytes.Repeat([]byte{0xFF}, 64))
	l.Reset()
	if c := l.Send(make([]byte, 64)); c.Flips.Data != 0 || c.Flips.Control != 0 {
		t.Errorf("zero block after Reset: %+v flips, want none", c.Flips)
	}
}

// TestRegistered: the scheme self-registers with segment validation.
func TestRegistered(t *testing.T) {
	d, ok := link.Lookup("fpf")
	if !ok {
		t.Fatal("fpf not registered")
	}
	if !d.Traits.UsesSegmentBits || d.Traits.DESCInterface {
		t.Errorf("traits %+v: want segmented, non-DESC", d.Traits)
	}
	if _, err := link.New(link.Spec{Scheme: "fpf", BlockBits: 512, DataWires: 64, SegmentBits: 7}); err == nil {
		t.Error("odd segment width: want validation error")
	}
	if _, err := link.New(link.Spec{Scheme: "fpf", BlockBits: 512, DataWires: 64}); err != nil {
		t.Errorf("design-point default: %v", err)
	}
}

// TestSendZeroAllocs mirrors the baseline/core allocation regressions:
// fpf sits on the same simulation hot path and must not allocate in the
// steady state.
func TestSendZeroAllocs(t *testing.T) {
	l := newLink(t, 512, 64, 8)
	rng := rand.New(rand.NewSource(9))
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
		if i%3 != 0 {
			rng.Read(blocks[i])
		}
	}
	for _, b := range blocks { // warm up the reused buffers
		l.Send(b)
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		l.Send(blocks[i%len(blocks)])
		i++
	})
	if avg != 0 {
		t.Errorf("%.2f allocs per steady-state Send, want 0", avg)
	}
}

// FuzzFPFDecode: arbitrary block pairs must decode exactly across
// segment widths, including the stateful flip accounting path.
func FuzzFPFDecode(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(
		[]byte{0xFF, 0x00, 0xFF, 0x00, 0xAA, 0x55, 0xAA, 0x55},
		[]byte{0x00, 0xFF, 0x00, 0xFF, 0x55, 0xAA, 0x55, 0xAA},
	)
	f.Fuzz(func(t *testing.T, first, second []byte) {
		if len(first) < 8 || len(second) < 8 {
			return
		}
		for _, seg := range []int{2, 4, 8, 16} {
			l, err := New(64, 16, seg)
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range [][]byte{first[:8], second[:8], first[:8]} {
				l.Send(block)
				if !bytes.Equal(l.LastDecoded(), block) {
					t.Fatalf("seg=%d: decoded %x != sent %x", seg, l.LastDecoded(), block)
				}
			}
		}
	})
}

func BenchmarkSend(b *testing.B) {
	l := newLink(b, 512, 64, 8)
	block := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(block)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(block)
	}
}
