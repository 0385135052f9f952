package core

import (
	"math/rand"
	"testing"
)

func TestChunkerGeometry(t *testing.T) {
	t.Parallel()
	// The paper's design point: 512-bit blocks, 4-bit chunks, 128 wires.
	c, err := NewChunker(512, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumChunks() != 128 || c.Rounds() != 1 {
		t.Errorf("design point: %d chunks, %d rounds; want 128, 1", c.NumChunks(), c.Rounds())
	}

	// Figure 4b: 128 chunks on 64 wires -> 2 rounds; wire 0 carries
	// chunks 0 and 64 (the figure's 1-indexed "1 and 65").
	c, err = NewChunker(512, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 2 {
		t.Errorf("64-wire rounds = %d, want 2", c.Rounds())
	}
	if c.Wire(0) != 0 || c.Wire(64) != 0 || c.Round(64) != 1 {
		t.Error("chunk 64 should ride wire 0 in round 1")
	}
	if i, ok := c.ChunkAt(1, 0); !ok || i != 64 {
		t.Errorf("ChunkAt(1,0) = %d,%v", i, ok)
	}
}

func TestChunkerPartialRound(t *testing.T) {
	t.Parallel()
	// 128 chunks on 48 wires: rounds of 48, 48, 32.
	c, err := NewChunker(512, 4, 48)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", c.Rounds())
	}
	if _, ok := c.ChunkAt(2, 31); !ok {
		t.Error("round 2 wire 31 should carry a chunk")
	}
	if _, ok := c.ChunkAt(2, 32); ok {
		t.Error("round 2 wire 32 should be empty")
	}
}

func TestChunkerErrors(t *testing.T) {
	t.Parallel()
	cases := []struct{ block, chunk, wires int }{
		{512, 0, 128},
		{512, 9, 128},
		{512, 5, 128}, // 512 % 5 != 0
		{512, 4, 0},
		{0, 4, 128},
		{4, 4, 1}, // not whole bytes
	}
	for _, c := range cases {
		if _, err := NewChunker(c.block, c.chunk, c.wires); err == nil {
			t.Errorf("NewChunker(%d,%d,%d) accepted invalid geometry", c.block, c.chunk, c.wires)
		}
	}
}

func TestChunkerSplitJoinRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 4, 8} {
		c, err := NewChunker(512, k, 64)
		if err != nil {
			t.Fatal(err)
		}
		block := make([]byte, 64)
		rng.Read(block)
		got := c.Join(c.Split(block))
		for i := range block {
			if got[i] != block[i] {
				t.Fatalf("k=%d: round trip differs at byte %d", k, i)
			}
		}
	}
}

func TestCountPosValueAtInverse(t *testing.T) {
	t.Parallel()
	for s := uint16(0); s < 16; s++ {
		seen := map[int]bool{}
		for v := uint16(0); v < 16; v++ {
			if v == s {
				continue
			}
			p := CountPos(v, s)
			if p < 1 || p > 15 {
				t.Fatalf("pos(%d|s=%d) = %d out of range", v, s, p)
			}
			if seen[p] {
				t.Fatalf("pos collision at s=%d p=%d", s, p)
			}
			seen[p] = true
			if got := ValueAt(p, s); got != v {
				t.Fatalf("ValueAt(%d, %d) = %d, want %d", p, s, got, v)
			}
		}
	}
}

func TestCountPosPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("CountPos(v==s) did not panic")
		}
	}()
	CountPos(3, 3)
}

func TestSkipPolicies(t *testing.T) {
	t.Parallel()
	n := NewSkipPolicy(SkipNone, 4)
	if _, ok := n.SkipValue(0); ok {
		t.Error("SkipNone reports skipping enabled")
	}
	z := NewSkipPolicy(SkipZero, 4)
	if s, ok := z.SkipValue(2); !ok || s != 0 {
		t.Error("SkipZero skip value wrong")
	}
	l := NewSkipPolicy(SkipLast, 4)
	if s, ok := l.SkipValue(1); !ok || s != 0 {
		t.Error("SkipLast initial value not zero")
	}
	l.Observe(1, 9)
	if s, _ := l.SkipValue(1); s != 9 {
		t.Errorf("SkipLast did not track: %d", s)
	}
	if s, _ := l.SkipValue(0); s != 0 {
		t.Error("SkipLast leaked across wires")
	}
	l.Reset()
	if s, _ := l.SkipValue(1); s != 0 {
		t.Error("SkipLast Reset did not clear")
	}
}

func TestSkipKindString(t *testing.T) {
	t.Parallel()
	if SkipNone.String() != "basic" || SkipZero.String() != "zero-skipped" || SkipLast.String() != "last-value-skipped" {
		t.Error("SkipKind names wrong")
	}
}
