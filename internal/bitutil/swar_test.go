package bitutil

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// The lane-MSB masks of the nibble and byte lanes of the DESC kernels.
var nibbleMSB, byteMSB = LaneMSB(4), LaneMSB(8)

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
		zm, neq := LaneZeroMask(x, nibbleMSB), LaneNeqMask(x, y, nibbleMSB)
		for i := 0; i < 16; i++ {
			bit := uint64(8) << (4 * uint(i))
			if (nibbleAt(x, i) == 0) != (zm&bit != 0) {
				t.Fatalf("LaneZeroMask(%#x, nibbles) wrong at nibble %d", x, i)
			}
			if (nibbleAt(x, i) != nibbleAt(y, i)) != (neq&bit != 0) {
				t.Fatalf("LaneNeqMask(%#x, %#x, nibbles) wrong at nibble %d", x, y, i)
			}
		}
		if zm&^nibbleMSB != 0 || neq&^nibbleMSB != 0 {
			t.Fatalf("mask for %#x sets bits outside nibble MSBs", x)
		}
	}
}

// scalarLaneMax is the scalar maximum over every k-bit lane of xs.
func scalarLaneMax(xs []uint64, k int) uint16 {
	var m uint16
	for _, x := range xs {
		for i := 0; i < 64/k; i++ {
			m = max(m, uint16(laneAt(x, k, i)))
		}
	}
	return m
}

// boundedWords returns n words of k-bit lanes in which each word draws
// its lanes from [0, b] for its own random bound b, so the maximum moves
// between the words (a fold that drops a word shows).
func boundedWords(rng *rand.Rand, n, k int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		b := rng.Intn(1 << uint(k))
		for l := 0; l < 64/k; l++ {
			xs[i] |= uint64(rng.Intn(b+1)) << uint(l*k)
		}
	}
	return xs
}

// scalarLaneZeros is the scalar count of the zero k-bit lanes of xs.
func scalarLaneZeros(xs []uint64, k int) int {
	n := 0
	for _, x := range xs {
		for i := 0; i < 64/k; i++ {
			if laneAt(x, k, i) == 0 {
				n++
			}
		}
	}
	return n
}

// laneFold is one lane width's DESC round fold: the largest k-bit lane
// of a round's words and, from the same pass, how many lanes are zero
// (the SSE2 kernel on amd64), and the portable SWAR fold, its oracle;
// each over words, over the bytes of little-endian words and over a run
// of equal rounds of such bytes.
type laneFold struct {
	k              int
	maxZeros       func([]uint64) (uint16, int)
	portable       func([]uint64) (uint16, int)
	maxZerosBytes  func([]byte) (uint16, int)
	portableBytes  func([]byte) (uint16, int)
	maxZerosRounds func([]byte, int, []RoundFold)
	portableRounds func([]byte, int, []RoundFold)
}

var (
	nibbleLanes = laneFold{4, MaxZerosNibble, nibbleFold, MaxZerosNibbleBytes,
		func(b []byte) (uint16, int) { return foldBytes(b, nibbleFold) },
		MaxZerosNibbleRounds,
		func(b []byte, n int, out []RoundFold) { foldRounds(b, n, out, nibbleFold) }}
	byteLanes = laneFold{8, MaxZerosByte, byteFold, MaxZerosByteBytes,
		func(b []byte) (uint16, int) { return foldBytes(b, byteFold) },
		MaxZerosByteRounds,
		func(b []byte, n int, out []RoundFold) { foldRounds(b, n, out, byteFold) }}
)

// check holds f's folds and its portable folds of xs to the scalar
// maximum and zero count: over the words, and over their little-endian
// bytes at every byte offset 0–7 from an 8-byte boundary, followed by a
// word of all-ones bytes that a fold reading past its length would
// count; and as a run of equal rounds for every round length that
// divides the words (checkRounds).
func (f laneFold) check(t *testing.T, xs []uint64) {
	t.Helper()
	wantMax, wantZeros := scalarLaneMax(xs, f.k), scalarLaneZeros(xs, f.k)
	for _, fold := range []struct {
		name     string
		maxZeros func([]uint64) (uint16, int)
	}{{"portable", f.portable}, {"kernel", f.maxZeros}} {
		if m, z := fold.maxZeros(xs); m != wantMax || z != wantZeros {
			t.Fatalf("k=%d %s max and zeros of %d words %#x = %d, %d, want %d, %d",
				f.k, fold.name, len(xs), xs, m, z, wantMax, wantZeros)
		}
	}
	buf := make([]byte, 8*len(xs)+16)
	for off := 0; off < 8; off++ {
		b := buf[off : off+8*len(xs)]
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
		for i := range buf[off+len(b):] {
			buf[off+len(b)+i] = 0xFF
		}
		for _, fold := range []struct {
			name     string
			maxZeros func([]byte) (uint16, int)
		}{{"portable", f.portableBytes}, {"kernel", f.maxZerosBytes}} {
			if m, z := fold.maxZeros(b); m != wantMax || z != wantZeros {
				t.Fatalf("k=%d %s max and zeros of the %d bytes at offset %d of words %#x = %d, %d, want %d, %d",
					f.k, fold.name, len(b), off, xs, m, z, wantMax, wantZeros)
			}
		}
	}
	for n := 1; n <= len(xs); n++ {
		if len(xs)%n == 0 {
			f.checkRounds(t, xs, n)
		}
	}
}

// roundSentinel fills the RoundFold slots a rounds fold must not write.
var roundSentinel = RoundFold{Peak: 0xDEAD, Zeros: 0xBEEF}

// checkRounds holds f's rounds folds and its portable ones, over the
// little-endian bytes of xs taken as len(xs)/n rounds of n words, to
// the scalar maximum and zero count of every round, at every byte offset
// 0–7 from an 8-byte boundary and followed by a word of all-ones bytes
// that a fold reading past the last round would count. The slot after
// the last round must keep its sentinel.
func (f laneFold) checkRounds(t *testing.T, xs []uint64, n int) {
	t.Helper()
	rounds := len(xs) / n
	buf := make([]byte, 8*len(xs)+16)
	out := make([]RoundFold, rounds+1)
	for off := 0; off < 8; off++ {
		b := buf[off : off+8*len(xs)]
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
		for i := range buf[off+len(b):] {
			buf[off+len(b)+i] = 0xFF
		}
		for _, fold := range []struct {
			name   string
			rounds func([]byte, int, []RoundFold)
		}{{"portable", f.portableRounds}, {"kernel", f.maxZerosRounds}} {
			for i := range out {
				out[i] = roundSentinel
			}
			fold.rounds(b, 8*n, out[:rounds])
			for r := range rounds {
				round := xs[r*n : (r+1)*n]
				want := RoundFold{uint32(scalarLaneMax(round, f.k)), uint32(scalarLaneZeros(round, f.k))}
				if out[r] != want {
					t.Fatalf("k=%d %s round %d of %d rounds of %d words at offset %d: %+v, want %+v (words %#x)",
						f.k, fold.name, r, rounds, n, off, out[r], want, xs)
				}
			}
			if out[rounds] != roundSentinel {
				t.Fatalf("k=%d %s of %d rounds of %d words wrote past its last slot: %+v",
					f.k, fold.name, rounds, n, out[rounds])
			}
		}
	}
}

// checkLaneRounds holds f's rounds folds to the scalar fold of every
// round over round lengths of 1 to 24 words (8–192 bytes) and runs of 0
// to 70 rounds, past the 64-round buffer core folds into, of bounded
// words whose maxima and zero counts move between rounds, so a round
// read at the wrong stride, a result in the wrong slot or a zero count
// carried into the next round shows.
func checkLaneRounds(t *testing.T, f laneFold) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(100 + f.k)))
	for n := 1; n <= 24; n++ {
		for _, rounds := range []int{0, 1, 2, 3, 7, 8, 9, 31, 63, 64, 65, 70} {
			xs := boundedWords(rng, n*rounds, f.k)
			if rounds > 1 {
				xs[rng.Intn(len(xs))] = 0 // a zero word in some round
			}
			f.checkRounds(t, xs, n)
		}
	}
}

func TestMaxNibbleRoundsMatchScalar(t *testing.T) {
	t.Parallel()
	checkLaneRounds(t, nibbleLanes)
}

func TestMaxByteRoundsMatchScalar(t *testing.T) {
	t.Parallel()
	checkLaneRounds(t, byteLanes)
}

// TestMaxZerosRoundsPanics: a round length that is not a positive
// multiple of 8, or more rounds than the bytes hold, also where rounds ×
// round length overflows to a length the bytes hold, panics instead of
// reading past the slice. The last case's product wraps to 0 on 32- and
// 64-bit platforms alike.
func TestMaxZerosRoundsPanics(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ bytes, roundBytes, rounds int }{
		{64, 0, 1}, {64, -8, 1}, {64, 12, 1}, {64, 64, 2}, {63, 8, 8}, {64, 1 << (bits.UintSize - 2), 4},
	} {
		for _, f := range []laneFold{nibbleLanes, byteLanes} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("k=%d: %d rounds of %d bytes in %d bytes did not panic", f.k, c.rounds, c.roundBytes, c.bytes)
					}
				}()
				f.maxZerosRounds(make([]byte, c.bytes), c.roundBytes, make([]RoundFold, c.rounds))
			}()
		}
	}
}

// laneCorners are words whose nibble split or byte compare a wrong fold
// gets wrong: all-ones and single-bit lanes, 0x0F/0xF0 bytes, and high
// nibbles just above their low ones.
var laneCorners = []uint64{0, ^uint64(0), 1, 0xF, 0x10, 0x80, 0xFF, 1 << 60, uint64(0xF) << 60,
	uint64(0x80) << 56, uint64(0xFF) << 56, 0x8080808080808080, 0x7F807F807F807F80,
	0x0F0F0F0F0F0F0F0F, 0xF0F0F0F0F0F0F0F0, 0x1010101010101010, 0x0101010101010101,
	0x00F0000000000000, 0x000000000F000000, 0x1F2E3D4C5B6A7988, 0x7070707070707070}

// checkLaneMax holds f to the scalar maximum and zero count on 0 to 24
// words, also as sub-slices that start at odd word offsets: random
// words, bounded words, a single peak in every word position and in
// every lane of an 8-word round, uniform rounds, rounds of 80 groups,
// and the corners the generator may miss.
func checkLaneMax(t *testing.T, f laneFold) {
	t.Helper()
	k := f.k
	top := uint64(1)<<uint(k) - 1
	rng := rand.New(rand.NewSource(int64(k)))
	for n := 0; n <= 24; n++ {
		for rep := 0; rep < 300; rep++ {
			buf := boundedWords(rng, n+3, k)
			if rep%10 == 0 {
				for i := range buf {
					buf[i] = rng.Uint64()
				}
			}
			f.check(t, buf[rep%4:][:n])
		}
		for at := 0; at < n; at++ {
			xs := boundedWords(rng, n, k)
			for i := range xs {
				xs[i] &^= LaneMSB(k) // lanes < 2^(k-1), below the peak
			}
			xs[at] |= top << uint(rng.Intn(64/k)*k)
			f.check(t, xs)
		}
		for _, fill := range []uint64{0, ^uint64(0)} {
			xs := make([]uint64, n)
			for i := range xs {
				xs[i] = fill
			}
			f.check(t, xs)
		}
	}
	for lane := 0; lane < 8*64/k; lane++ {
		for _, bp := range [][2]uint64{{0, 1}, {0, top}, {1, top}, {top - 1, top}} {
			xs := make([]uint64, 8)
			for i := range xs {
				xs[i] = bp[0] * (^uint64(0) / top) // every lane bp[0]
			}
			w, sh := lane*k/64, uint(lane*k%64)
			xs[w] = xs[w]&^(top<<sh) | bp[1]<<sh
			f.check(t, xs)
		}
	}
	// Rounds of many 8-word groups: 80 all-zero groups add more zero
	// lanes to each byte counter than it holds, so one the kernel leaves
	// unflushed across groups wraps, and a peak in the last word shows a
	// fold that stops early.
	for _, n := range []int{640, 643} {
		xs := make([]uint64, n)
		f.check(t, xs)
		xs[n-1] = top << uint(64-k)
		f.check(t, xs)
		for i := range xs {
			xs[i] = ^uint64(0)
		}
		f.check(t, xs)
	}
	for _, x := range laneCorners {
		f.check(t, []uint64{x})
		f.check(t, []uint64{0, 0, 0, 0, 0, x, 0, 0})
		f.check(t, []uint64{x, x, x, x, x, x, x, x, x})
		xs := make([]uint64, 16)
		xs[11] = x
		f.check(t, xs)
	}
}

func TestMaxNibbleMatchesScalar(t *testing.T) {
	t.Parallel()
	checkLaneMax(t, nibbleLanes)
}

func TestNibbleNeqMaskIteration(t *testing.T) {
	t.Parallel()
	// The documented idiom: TrailingZeros64 on the mask visits exactly the
	// differing lanes, in ascending order.
	x, y := uint64(0x00A0_0500_0000_0031), uint64(0x00A0_0000_0000_0030)
	var lanes []int
	for m := LaneNeqMask(x, y, nibbleMSB); m != 0; m &= m - 1 {
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
		zm, neq := LaneZeroMask(x, byteMSB), LaneNeqMask(x, y, byteMSB)
		for i := 0; i < 8; i++ {
			bit := uint64(0x80) << (8 * uint(i))
			if (byteAt(x, i) == 0) != (zm&bit != 0) {
				t.Fatalf("LaneZeroMask(%#x, bytes) wrong at byte %d", x, i)
			}
			if (byteAt(x, i) != byteAt(y, i)) != (neq&bit != 0) {
				t.Fatalf("LaneNeqMask(%#x, %#x, bytes) wrong at byte %d", x, y, i)
			}
		}
		if zm&^byteMSB != 0 || neq&^byteMSB != 0 {
			t.Fatalf("mask for %#x sets bits outside byte MSBs", x)
		}
	}
}

func TestMaxByteMatchesScalar(t *testing.T) {
	t.Parallel()
	checkLaneMax(t, byteLanes)
}

// FuzzLaneMaxVsScalar holds the nibble and byte folds, over words and
// over their bytes at byte offsets 0–7, to the scalar maximum and zero
// count on the words of arbitrary data, each word shifted right by a
// per-word amount from shifts so that word maxima differ: all the words,
// and every prefix of 0 to 24 words from each of the first four word
// offsets, so rounds start at odd words too; and the rounds folds over
// the longest run of whole rounds of every length of 1 to 24 words.
func FuzzLaneMaxVsScalar(f *testing.F) {
	peak := make([]byte, 64)
	peak[5*8+3] = 0x70
	f.Add(peak, []byte{0})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x0F}, []byte{60, 0})
	f.Add(make([]byte, 128), []byte{})
	f.Fuzz(func(t *testing.T, data, shifts []byte) {
		xs := LoadWords(nil, data)
		for i := range xs {
			if i < len(shifts) {
				xs[i] >>= shifts[i] & 63
			}
		}
		for off := 0; off < 4 && off <= len(xs); off++ {
			for n := 0; n <= 24 && off+n <= len(xs); n++ {
				nibbleLanes.check(t, xs[off:off+n])
				byteLanes.check(t, xs[off:off+n])
			}
		}
		nibbleLanes.check(t, xs)
		byteLanes.check(t, xs)
		for n := 1; n <= 24 && n <= len(xs); n++ {
			nibbleLanes.checkRounds(t, xs[:len(xs)/n*n], n)
			byteLanes.checkRounds(t, xs[:len(xs)/n*n], n)
		}
	})
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

func TestLaneLessMaskMatchesScalar(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	for _, k := range laneWidths {
		msb := LaneMSB(k)
		for n := 0; n < 400; n++ {
			x, y := rng.Uint64(), rng.Uint64()
			if n%2 == 0 {
				// Equal top bits and few differing low bits, so
				// the borrow compare decides most lanes.
				y = x ^ rng.Uint64()&rng.Uint64()&rng.Uint64()&^msb
			}
			lt := LaneLessMask(x, y, msb)
			for i := 0; i < 64/k; i++ {
				top := uint(i*k + k - 1)
				if want := laneAt(x, k, i) < laneAt(y, k, i); want != (lt>>top&1 == 1) {
					t.Fatalf("LaneLessMask(%#x, %#x) k=%d lane %d = %v, want %v", x, y, k, i, !want, want)
				}
			}
			if lt&^msb != 0 {
				t.Fatalf("LaneLessMask(%#x, %#x) k=%d sets non-MSB bits", x, y, k)
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

// laneMaxSink keeps the benchmarked folds from being optimized away.
var laneMaxSink uint16

// laneRoundWords are the round sizes the lane-max benchmarks time: the
// 2-, 4-, 8- and 16-word DESC rounds (32, 64, 128 and 256 wires of 4-bit
// chunks), so that a change of the 8-word group dispatch shows on both
// sides of it.
var laneRoundWords = []int{2, 4, 8, 16}

// laneRounds returns 64 rounds of n bounded words of k-bit lanes.
func laneRounds(k, n int) [64][]uint64 {
	rng := rand.New(rand.NewSource(1))
	var rounds [64][]uint64
	for i := range rounds {
		rounds[i] = boundedWords(rng, n, k)
	}
	return rounds
}

// BenchmarkMaxZerosNibbleRounds times the rounds fold over 64 rounds of
// n words per call, the way core's SendBlocks calls it, and reports the
// time per round (ns/round), comparable with BenchmarkMaxNibble's ns/op.
func BenchmarkMaxZerosNibbleRounds(b *testing.B) {
	for _, n := range laneRoundWords {
		b.Run(fmt.Sprintf("words=%d", n), func(b *testing.B) {
			var buf []byte
			for _, r := range laneRounds(4, n) {
				for _, x := range r {
					buf = binary.LittleEndian.AppendUint64(buf, x)
				}
			}
			var out [64]RoundFold
			for i := 0; i < b.N; i++ {
				MaxZerosNibbleRounds(buf, 8*n, out[:])
			}
			laneMaxSink = uint16(out[63].Peak)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/round")
		})
	}
}

// BenchmarkMaxNibble and BenchmarkMaxByte time a round's lane fold the
// way core's maxZeros calls it, directly.
func BenchmarkMaxNibble(b *testing.B) {
	for _, n := range laneRoundWords {
		b.Run(fmt.Sprintf("words=%d", n), func(b *testing.B) {
			rounds := laneRounds(4, n)
			var m uint16
			for i := 0; i < b.N; i++ {
				p, _ := MaxZerosNibble(rounds[i%len(rounds)])
				m |= p
			}
			laneMaxSink = m
		})
	}
}

func BenchmarkMaxByte(b *testing.B) {
	for _, n := range laneRoundWords {
		b.Run(fmt.Sprintf("words=%d", n), func(b *testing.B) {
			rounds := laneRounds(8, n)
			var m uint16
			for i := 0; i < b.N; i++ {
				p, _ := MaxZerosByte(rounds[i%len(rounds)])
				m |= p
			}
			laneMaxSink = m
		})
	}
}
