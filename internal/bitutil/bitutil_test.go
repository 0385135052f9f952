package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetBit(t *testing.T) {
	t.Parallel()
	b := make([]byte, 4)
	for _, i := range []int{0, 7, 8, 15, 31} {
		if Bit(b, i) {
			t.Errorf("fresh block has bit %d set", i)
		}
		SetBit(b, i, true)
		if !Bit(b, i) {
			t.Errorf("bit %d not set after SetBit", i)
		}
		SetBit(b, i, false)
		if Bit(b, i) {
			t.Errorf("bit %d still set after clear", i)
		}
	}
}

func TestChunkKnownValues(t *testing.T) {
	t.Parallel()
	// Block bytes 0x53 0xA1: bits (LSB first) 1100 1010 1000 0101.
	block := []byte{0x53, 0xA1}
	cases := []struct {
		off, k int
		want   uint16
	}{
		{0, 4, 0x3},
		{4, 4, 0x5},
		{8, 4, 0x1},
		{12, 4, 0xA},
		{0, 8, 0x53},
		{8, 8, 0xA1},
		{4, 8, 0x15}, // straddles the byte boundary
		{0, 16, 0xA153},
		{3, 2, 0x2}, // bits 3,4 of 0x53 = 0,1 -> value 2
	}
	for _, c := range cases {
		if got := Chunk(block, c.off, c.k); got != c.want {
			t.Errorf("Chunk(off=%d,k=%d) = %#x, want %#x", c.off, c.k, got, c.want)
		}
	}
}

func TestPutChunkRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(16)
		block := make([]byte, 8)
		off := rng.Intn(len(block)*8 - k + 1)
		v := uint16(rng.Intn(1 << uint(k)))
		PutChunk(block, off, k, v)
		if got := Chunk(block, off, k); got != v {
			t.Fatalf("k=%d off=%d: wrote %#x read %#x", k, off, v, got)
		}
	}
}

func TestChunksFromChunksRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		for _, k := range []int{1, 2, 4, 8} {
			got := FromChunks(Chunks(data, k), k)
			if !Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChunksCount(t *testing.T) {
	t.Parallel()
	block := make([]byte, 64) // 512 bits
	if got := len(Chunks(block, 4)); got != 128 {
		t.Errorf("512-bit block has %d 4-bit chunks, want 128 (paper Sec 3.2.1)", got)
	}
}

func TestChunkPanics(t *testing.T) {
	t.Parallel()
	block := make([]byte, 2)
	for _, fn := range []func(){
		func() { Chunk(block, 0, 0) },
		func() { Chunk(block, 0, 17) },
		func() { Chunk(block, 14, 4) },
		func() { PutChunk(block, 0, 4, 16) },
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

func TestClone(t *testing.T) {
	t.Parallel()
	orig := []byte{1, 2, 3}
	c := Clone(orig)
	c[0] = 9
	if orig[0] != 1 {
		t.Error("Clone aliases its input")
	}
}
