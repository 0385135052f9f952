package workload

import (
	"math"
	"sync"
	"testing"
)

// memoSeeds are the seeds the memo tests cover, including zero and a
// negative seed.
var memoSeeds = []int64{0, 1, 42, -7}

// TestSpillMemoMatchesFreshCalibration: a generator whose spill correction
// came from the memo must be bit-identical to one that re-ran the
// bisection (calibrateSpill, the memo's miss path), in its correction and
// in the blocks it produces. The fresh generator's blocks are generated
// directly, since FillBlockData would serve both from the block cache.
func TestSpillMemoMatchesFreshCalibration(t *testing.T) {
	const blocks = 4096
	var memoBuf, freshBuf [64]byte
	for _, prof := range append(Parallel(), SPEC()...) {
		for _, seed := range memoSeeds {
			NewGenerator(prof, seed) // make sure the key is memoized
			spillCorrs.mu.Lock()
			_, hit := spillCorrs.find(spillKey{prof, seed})
			spillCorrs.mu.Unlock()
			if !hit {
				t.Fatalf("%s/%d: not memoized after NewGenerator", prof.Name, seed)
			}
			memo := NewGenerator(prof, seed)
			fresh := NewGenerator(prof, seed)
			want := fresh.calibrateSpill()
			if math.Float64bits(memo.spillCorr) != math.Float64bits(want) {
				t.Fatalf("%s/%d: memoized spillCorr %v, fresh bisection %v", prof.Name, seed, memo.spillCorr, want)
			}
			for i := uint64(0); i < blocks; i++ {
				addr := mix(uint64(seed)+i*7919) % (1 << 32)
				memo.FillBlockData(addr, memoBuf[:])
				fresh.genBlock(addr&^63, &freshBuf)
				if memoBuf != freshBuf {
					t.Fatalf("%s/%d: block %d at %#x differs between memoized and fresh generators", prof.Name, seed, i, addr)
				}
			}
		}
	}
}

// TestSpillMemoBounded: the memo holds at most spillMemoCap entries,
// evicts the oldest first, and serves hits without recalibrating.
func TestSpillMemoBounded(t *testing.T) {
	var m spillMemo
	prof := Parallel()[0]
	calls := 0
	calibrate := func(v float64) func() float64 {
		return func() float64 { calls++; return v }
	}
	const keys = spillMemoCap + 10
	for i := 0; i < keys; i++ {
		m.get(spillKey{prof, int64(i)}, calibrate(float64(i)))
	}
	if m.n != spillMemoCap || calls != keys {
		t.Fatalf("after %d distinct keys: %d entries, %d calibrations; want %d entries, %d calibrations",
			keys, m.n, calls, spillMemoCap, keys)
	}
	// The newest spillMemoCap keys hit; the oldest were evicted.
	calls = 0
	for i := keys - spillMemoCap; i < keys; i++ {
		if v, _ := m.get(spillKey{prof, int64(i)}, calibrate(-1)); v != float64(i) {
			t.Fatalf("key %d: got %v, want memoized %v", i, v, float64(i))
		}
	}
	if calls != 0 {
		t.Fatalf("%d recalibrations for memoized keys", calls)
	}
	m.get(spillKey{prof, 0}, calibrate(0))
	if calls != 1 || m.n != spillMemoCap {
		t.Fatalf("evicted key 0: %d calibrations, %d entries; want 1 and %d", calls, m.n, spillMemoCap)
	}
	// A NaN field makes the key unequal to itself: it never hits, and the
	// table stays at the cap.
	nan := prof
	nan.ZeroChunkFrac = math.NaN()
	calls = 0
	for i := 0; i < 3; i++ {
		m.get(spillKey{nan, 1}, calibrate(0))
	}
	if calls != 3 || m.n != spillMemoCap {
		t.Fatalf("NaN key: %d calibrations, %d entries; want 3 and %d", calls, m.n, spillMemoCap)
	}
}

// TestSpillMemoConcurrent calibrates a few keys from many goroutines at
// once through the global memo (NewGenerator) and through a fresh memo
// whose every key starts cold (run it under -race): each result must
// equal a fresh bisection, and concurrent misses on one key must leave a
// single entry.
func TestSpillMemoConcurrent(t *testing.T) {
	profs := SPEC()[:2]
	const seed = 90417
	var m spillMemo
	var wg sync.WaitGroup
	viaNew := make([]float64, 8)
	viaMemo := make([]float64, len(viaNew))
	for i := range viaNew {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := profs[i%len(profs)]
			g := NewGenerator(p, seed)
			viaNew[i] = g.spillCorr
			viaMemo[i], _ = m.get(spillKey{p, seed}, g.calibrateSpill)
		}(i)
	}
	wg.Wait()
	if m.n != len(profs) {
		t.Errorf("memo holds %d entries for %d keys", m.n, len(profs))
	}
	for i := range viaNew {
		p := profs[i%len(profs)]
		want := NewGenerator(p, seed).calibrateSpill()
		for _, got := range []float64{viaNew[i], viaMemo[i]} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("goroutine %d (%s): spillCorr %v, want %v", i, p.Name, got, want)
			}
		}
	}
}
