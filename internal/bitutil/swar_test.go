package bitutil

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// nibbleAt is the scalar definition every SWAR kernel is checked against.
func nibbleAt(x uint64, i int) uint16 {
	return uint16(x>>(4*uint(i))) & 0xF
}

func TestLoadWordsMatchesBitOrder(t *testing.T) {
	t.Parallel()
	f := func(block []byte) bool {
		words := LoadWords(nil, block)
		for i := 0; i < len(block)*8; i++ {
			w := words[i/64]>>(uint(i)%64)&1 == 1
			if w != Bit(block, i) {
				return false
			}
		}
		// Padding bits of a partial final word must be zero.
		if n := len(block) * 8 % 64; n != 0 && len(words) > 0 {
			if words[len(words)-1]>>uint(n) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLoadWordsReusesBuffer(t *testing.T) {
	t.Parallel()
	buf := make([]uint64, 8)
	block := make([]byte, 64)
	block[0] = 0xAB
	got := LoadWords(buf, block)
	if &got[0] != &buf[0] {
		t.Error("LoadWords reallocated despite sufficient capacity")
	}
	if got[0] != 0xAB {
		t.Errorf("word 0 = %#x, want 0xAB", got[0])
	}
}

func TestNibbleMasksMatchScalar(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	words := []uint64{0, ^uint64(0), 0x1111111111111111, 0x0123456789ABCDEF, 0xF0F0F0F0F0F0F0F0}
	for i := 0; i < 500; i++ {
		words = append(words, rng.Uint64())
	}
	for _, x := range words {
		y := words[int(x%uint64(len(words)))]
		zm, neq := NibbleZeroMask(x), NibbleNeqMask(x, y)
		for i := 0; i < 16; i++ {
			bit := uint64(8) << (4 * uint(i))
			if (nibbleAt(x, i) == 0) != (zm&bit != 0) {
				t.Fatalf("NibbleZeroMask(%#x) wrong at nibble %d", x, i)
			}
			if (nibbleAt(x, i) != nibbleAt(y, i)) != (neq&bit != 0) {
				t.Fatalf("NibbleNeqMask(%#x, %#x) wrong at nibble %d", x, y, i)
			}
		}
		if zm&^uint64(NibbleMSB) != 0 || neq&^uint64(NibbleMSB) != 0 {
			t.Fatalf("mask for %#x sets bits outside nibble MSBs", x)
		}
	}
}

func TestMaxNibbleMatchesScalar(t *testing.T) {
	t.Parallel()
	f := func(x uint64) bool {
		var want uint16
		for i := 0; i < 16; i++ {
			if v := nibbleAt(x, i); v > want {
				want = v
			}
		}
		return MaxNibble(x) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Corners the generator may miss.
	for _, x := range []uint64{0, ^uint64(0), 1, 1 << 60, 0xF, uint64(0xF) << 60} {
		if !f(x) {
			t.Errorf("MaxNibble(%#x) diverges from scalar max", x)
		}
	}
}

func TestNibbleNeqMaskIteration(t *testing.T) {
	t.Parallel()
	// The documented idiom: TrailingZeros64 on the mask visits exactly the
	// differing lanes, in ascending order.
	x, y := uint64(0x00A0_0500_0000_0031), uint64(0x00A0_0000_0000_0030)
	var lanes []int
	for m := NibbleNeqMask(x, y); m != 0; m &= m - 1 {
		lanes = append(lanes, bits.TrailingZeros64(m)>>2)
	}
	want := []int{0, 10}
	if len(lanes) != len(want) {
		t.Fatalf("differing lanes %v, want %v", lanes, want)
	}
	for i := range want {
		if lanes[i] != want[i] {
			t.Fatalf("differing lanes %v, want %v", lanes, want)
		}
	}
}

// byteAt is the scalar definition the byte-lane kernels are checked against.
func byteAt(x uint64, i int) uint16 {
	return uint16(x>>(8*uint(i))) & 0xFF
}

func TestByteMasksMatchScalar(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	words := []uint64{0, ^uint64(0), 0x0101010101010101, 0x8080808080808080, 0x0123456789ABCDEF, 0xFF00FF00FF00FF00, 0x0100000000000001}
	for i := 0; i < 500; i++ {
		words = append(words, rng.Uint64())
	}
	for _, x := range words {
		y := words[int(x%uint64(len(words)))]
		zm, neq := ByteZeroMask(x), ByteNeqMask(x, y)
		for i := 0; i < 8; i++ {
			bit := uint64(0x80) << (8 * uint(i))
			if (byteAt(x, i) == 0) != (zm&bit != 0) {
				t.Fatalf("ByteZeroMask(%#x) wrong at byte %d", x, i)
			}
			if (byteAt(x, i) != byteAt(y, i)) != (neq&bit != 0) {
				t.Fatalf("ByteNeqMask(%#x, %#x) wrong at byte %d", x, y, i)
			}
		}
		if zm&^uint64(ByteMSB) != 0 || neq&^uint64(ByteMSB) != 0 {
			t.Fatalf("mask for %#x sets bits outside byte MSBs", x)
		}
	}
}

func TestMaxByteMatchesScalar(t *testing.T) {
	t.Parallel()
	f := func(x uint64) bool {
		var want uint16
		for i := 0; i < 8; i++ {
			if v := byteAt(x, i); v > want {
				want = v
			}
		}
		return MaxByte(x) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Corners: full-range bytes (>= 0x80) in every position, ties, zero.
	for _, x := range []uint64{0, ^uint64(0), 0x80, uint64(0x80) << 56, 0xFF, uint64(0xFF) << 56, 0x8080808080808080, 0x7F807F807F807F80} {
		if !f(x) {
			t.Errorf("MaxByte(%#x) diverges from scalar max", x)
		}
	}
}

// laneWidths are the lane widths the segmented bus kernels use: every
// segment width that divides a word.
var laneWidths = []int{1, 2, 4, 8, 16, 32, 64}

// laneAt is the scalar definition of lane i of k-bit lanes.
func laneAt(x uint64, k, i int) uint64 {
	if k == 64 {
		return x
	}
	return x >> uint(i*k) & (1<<uint(k) - 1)
}

func TestLanePopcountsMatchScalar(t *testing.T) {
	t.Parallel()
	for _, k := range laneWidths {
		f := func(x uint64) bool {
			pc := LanePopcounts(x, k)
			for i := 0; i < 64/k; i++ {
				if int(laneAt(pc, k, i)) != bits.OnesCount64(laneAt(x, k, i)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		for _, x := range []uint64{0, ^uint64(0), 0x8080808080808080, 0x0102040810204080} {
			if !f(x) {
				t.Errorf("LanePopcounts(%#x, %d) diverges from scalar popcounts", x, k)
			}
		}
	}
}

func TestLaneZeroMaskAndFill(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	for _, k := range laneWidths {
		msb := LaneMSB(k)
		if bits.OnesCount64(msb) != 64/k {
			t.Fatalf("LaneMSB(%d) = %#x", k, msb)
		}
		for n := 0; n < 400; n++ {
			// Sparse words so that zero lanes occur at every width.
			x := rng.Uint64() & rng.Uint64() & rng.Uint64()
			if n%3 == 0 {
				x &= rng.Uint64() & rng.Uint64()
			}
			zm := LaneZeroMask(x, msb)
			fill := LaneFill(zm, k)
			for i := 0; i < 64/k; i++ {
				top := uint(i*k + k - 1)
				if zero := laneAt(x, k, i) == 0; zero != (zm>>top&1 == 1) {
					t.Fatalf("LaneZeroMask(%#x) k=%d lane %d = %v", x, k, i, !zero)
				}
				want := uint64(0)
				if laneAt(x, k, i) == 0 {
					want = laneAt(^uint64(0), k, 0)
				}
				if laneAt(fill, k, i) != want {
					t.Fatalf("LaneFill k=%d lane %d = %#x, want %#x", k, i, laneAt(fill, k, i), want)
				}
			}
			if zm&^msb != 0 {
				t.Fatalf("LaneZeroMask(%#x) k=%d sets non-MSB bits", x, k)
			}
		}
	}
}

func TestReadBitsMatchesChunk(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	block := make([]byte, 23)
	rng.Read(block)
	for off := 0; off < len(block)*8; off++ {
		for n := 1; n <= 64 && off+n <= len(block)*8; n++ {
			got := ReadBits(block, off, n)
			var want uint64
			for i := 0; i < n; i++ {
				if Bit(block, off+i) {
					want |= 1 << uint(i)
				}
			}
			if got != want {
				t.Fatalf("ReadBits(off=%d, n=%d) = %#x, want %#x", off, n, got, want)
			}
		}
	}
}

func TestSpreadLanesMatchesScalar(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for _, lane := range []int{4, 8} {
		for k := 1; k <= lane; k++ {
			for n := 0; n < 200; n++ {
				x := rng.Uint64()
				if lanes := 64 / lane; lanes*k < 64 {
					x &= 1<<uint(lanes*k) - 1
				}
				got := SpreadLanes(x, k, lane)
				for i := 0; i < 64/lane; i++ {
					if laneAt(got, lane, i) != laneAt(x>>uint(i*k), k, 0) {
						t.Fatalf("SpreadLanes(%#x, %d, %d) lane %d = %#x", x, k, lane, i, laneAt(got, lane, i))
					}
				}
			}
		}
	}
}

func TestLaneMasks(t *testing.T) {
	t.Parallel()
	for n := 0; n <= 17; n++ {
		m := NibbleLaneMask(n)
		for i := 0; i < 16; i++ {
			want := uint16(0)
			if i < n {
				want = 0xF
			}
			if nibbleAt(m, i) != want {
				t.Fatalf("NibbleLaneMask(%d) nibble %d = %#x", n, i, nibbleAt(m, i))
			}
		}
	}
	for n := 0; n <= 9; n++ {
		m := ByteLaneMask(n)
		for i := 0; i < 8; i++ {
			want := uint16(0)
			if i < n {
				want = 0xFF
			}
			if byteAt(m, i) != want {
				t.Fatalf("ByteLaneMask(%d) byte %d = %#x", n, i, byteAt(m, i))
			}
		}
	}
}

func TestStoreWordsInvertsLoadWords(t *testing.T) {
	t.Parallel()
	f := func(block []byte) bool {
		words := LoadWords(nil, block)
		out := make([]byte, len(block))
		for i := range out {
			out[i] = 0xCC // must be fully overwritten
		}
		StoreWords(out, words)
		for i := range block {
			if out[i] != block[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStoreWordsIgnoresPaddingBits(t *testing.T) {
	t.Parallel()
	// Garbage beyond the block in a partial final word must not leak.
	words := []uint64{0xFFFFFFFFFFFF4241}
	block := make([]byte, 3)
	StoreWords(block, words)
	if block[0] != 0x41 || block[1] != 0x42 || block[2] != 0xFF {
		t.Errorf("StoreWords wrote %x", block)
	}
}

func TestStoreWordsPanicsOnShortWords(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	StoreWords(make([]byte, 16), make([]uint64, 1))
}

func TestPackChunksInvertsAppendChunks(t *testing.T) {
	t.Parallel()
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0x5A}
		}
		for _, k := range []int{1, 2, 4, 5, 8, 16} {
			if len(data)*8%k != 0 {
				continue
			}
			chunks := AppendChunks(nil, data, k)
			words := PackChunks(nil, chunks, k)
			want := LoadWords(nil, data)
			if len(words) != len(want) {
				return false
			}
			for i := range want {
				if words[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPackChunksReusesBufferAndClears(t *testing.T) {
	t.Parallel()
	buf := make([]uint64, 4)
	for i := range buf {
		buf[i] = ^uint64(0) // stale garbage that must be cleared
	}
	got := PackChunks(buf, []uint16{0x3, 0x5}, 4)
	if &got[0] != &buf[0] {
		t.Error("PackChunks reallocated despite sufficient capacity")
	}
	if len(got) != 1 || got[0] != 0x53 {
		t.Errorf("PackChunks = %#x, want [0x53]", got)
	}
}

func TestPackChunksStraddlingLanes(t *testing.T) {
	t.Parallel()
	// k=5 chunks straddle word boundaries: 13 chunks = 65 bits.
	chunks := make([]uint16, 13)
	for i := range chunks {
		chunks[i] = uint16(i+1) & 0x1F
	}
	words := PackChunks(nil, chunks, 5)
	if len(words) != 2 {
		t.Fatalf("got %d words, want 2", len(words))
	}
	for i, c := range chunks {
		off := i * 5
		var got uint16
		for b := 0; b < 5; b++ {
			if words[(off+b)/64]>>(uint(off+b)%64)&1 == 1 {
				got |= 1 << uint(b)
			}
		}
		if got != c {
			t.Fatalf("chunk %d read back as %#x, want %#x", i, got, c)
		}
	}
}

func TestPackChunksPanics(t *testing.T) {
	t.Parallel()
	for _, k := range []int{0, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for k=%d", k)
				}
			}()
			PackChunks(nil, []uint16{1}, k)
		}()
	}
}

func TestLoadStoreBitsRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(data []byte, offByte uint8, countWords uint8) bool {
		block := append([]byte(nil), data...)
		if len(block) < 8 {
			block = append(block, make([]byte, 8-len(block))...)
		}
		off := int(offByte) % len(block) * 8
		count := len(block)*8 - off
		if count > 128 {
			count = 128
		}
		words := make([]uint64, (count+63)/64)
		LoadBits(words, block, off, count)
		for i := 0; i < count; i++ {
			got := words[i/64]>>(uint(i)%64)&1 == 1
			if got != Bit(block, off+i) {
				return false
			}
		}
		// Padding bits beyond count must be zero.
		if n := count % 64; n != 0 {
			if words[len(words)-1]>>uint(n) != 0 {
				return false
			}
		}
		out := make([]byte, len(block))
		StoreBits(out, words, off, count)
		for i := 0; i < count; i++ {
			if Bit(out, off+i) != Bit(block, off+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStoreBitsIgnoresOutOfRange(t *testing.T) {
	t.Parallel()
	// count beyond the block (padding wires) must not write or panic.
	block := make([]byte, 3)
	StoreBits(block, []uint64{0xFFFFFFFFFFFFFFFF}, 0, 64)
	for i, b := range block {
		if b != 0xFF {
			t.Errorf("byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestAppendChunksMatchesChunks(t *testing.T) {
	t.Parallel()
	f := func(data []byte, seed uint8) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		for _, k := range []int{1, 2, 3, 4, 5, 8, 16} {
			if len(data)*8%k != 0 {
				continue
			}
			want := Chunks(data, k)
			got := AppendChunks(nil, data, k)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAppendChunksReusesAndExtends(t *testing.T) {
	t.Parallel()
	buf := make([]uint16, 1, 64)
	buf[0] = 99
	got := AppendChunks(buf, []byte{0x53}, 4)
	if &got[0] != &buf[0] {
		t.Error("AppendChunks reallocated despite sufficient capacity")
	}
	if len(got) != 3 || got[0] != 99 || got[1] != 0x3 || got[2] != 0x5 {
		t.Errorf("AppendChunks = %v, want [99 3 5]", got)
	}
}

func TestAppendChunksPanics(t *testing.T) {
	t.Parallel()
	for _, fn := range []func(){
		func() { AppendChunks(nil, []byte{1}, 0) },
		func() { AppendChunks(nil, []byte{1}, 17) },
		func() { AppendChunks(nil, []byte{1}, 3) }, // 8 bits not divisible by 3
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
