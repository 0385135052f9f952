package cachesim

import (
	"testing"

	"desc/internal/cachemodel"
)

// fixedSource returns deterministic block contents without a workload
// dependency: half the bytes are zero (so value skipping has work to do)
// and the rest vary with the address.
type fixedSource byte

func (f fixedSource) FillBlockData(addr uint64, buf []byte) {
	for i := range buf {
		if i%2 == 0 {
			buf[i] = 0
		} else {
			buf[i] = byte(f) ^ byte(addr>>6) ^ byte(i*37) ^ byte(addr>>13)
		}
	}
}

func hierarchy(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg, fixedSource(7))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(Config{L1Bytes: 1000, L1Ways: 3}, fixedSource(0)); err == nil {
		t.Error("non-power-of-two L1 sets accepted")
	}
}

func TestL1HitPath(t *testing.T) {
	h := hierarchy(t, Config{})
	const addr = 0x4000
	first := h.Access(0, 0, addr, false)
	if first <= 0 {
		t.Fatal("no latency on a cold miss")
	}
	// Second access to the same block: L1 hit at the configured delay.
	now := first
	second := h.Access(now, 0, addr, false)
	if second-now != 2 {
		t.Errorf("L1 hit latency %d, want 2 (Table 1)", second-now)
	}
	st := h.Stats()
	if st.L1Hits != 1 || st.L1Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.L1Hits, st.L1Misses)
	}
}

func TestL2HitVsMissLatency(t *testing.T) {
	h := hierarchy(t, Config{})
	// Cold miss goes to DRAM.
	missDone := h.Access(0, 0, 0x8000, false)
	// Evict it from L1 by filling the set (L1: 64 sets x 4 ways; same
	// set every 64*64 bytes).
	now := missDone
	for i := 1; i <= 4; i++ {
		now = h.Access(now, 0, uint64(0x8000+i*64*64), false)
	}
	// Re-access: L1 miss, L2 hit — much faster than the cold miss.
	start := now
	done := h.Access(now, 0, 0x8000, false)
	hitLat := done - start
	if hitLat >= missDone {
		t.Errorf("L2 hit latency %d not below cold miss %d", hitLat, missDone)
	}
	st := h.Stats()
	if st.L2Hits == 0 {
		t.Error("no L2 hit recorded")
	}
}

// TestCoherenceInvalidation: a write from one core invalidates the other
// core's L1 copy, and a subsequent remote read triggers the dirty-owner
// writeback.
func TestCoherenceInvalidation(t *testing.T) {
	h := hierarchy(t, Config{})
	const addr = 0xA000
	h.Access(0, 0, addr, false)      // core 0 reads
	h.Access(100000, 1, addr, false) // core 1 reads (sharer)
	h.Access(200000, 0, addr, true)  // core 0 writes: invalidates core 1
	st := h.Stats()
	if st.Invalidations == 0 {
		t.Fatal("write to shared block did not invalidate")
	}
	// Core 1 reads again: core 0's dirty copy must be written back.
	before := h.Stats().L1WritebacksToL2
	h.Access(300000, 1, addr, false)
	if h.Stats().L1WritebacksToL2 <= before {
		t.Error("remote read of a dirty line did not force a writeback")
	}
}

// TestUpgradeOnSharedWrite: writing a Shared line costs an upgrade (tag
// probe) without refetching data.
func TestUpgradeOnSharedWrite(t *testing.T) {
	h := hierarchy(t, Config{})
	const addr = 0xB000
	h.Access(0, 0, addr, false)
	h.Access(100000, 0, addr, true)
	st := h.Stats()
	if st.UpgradeMisses != 1 {
		t.Errorf("upgrades = %d, want 1", st.UpgradeMisses)
	}
}

// TestMSHRMerge: concurrent requests for one block merge rather than
// issuing twice.
func TestMSHRMerge(t *testing.T) {
	h := hierarchy(t, Config{})
	const addr = 0xC000
	done0 := h.Access(0, 0, addr, false)
	done1 := h.Access(1, 1, addr, false) // one cycle later, still in flight
	if h.Stats().MSHRMerges != 1 {
		t.Errorf("merges = %d, want 1", h.Stats().MSHRMerges)
	}
	if done1 > done0+4 {
		t.Errorf("merged request finished at %d, far beyond the original %d", done1, done0)
	}
}

// TestBankConflictQueueing: simultaneous accesses to the same bank
// serialize; to different banks they overlap.
func TestBankConflictQueueing(t *testing.T) {
	h := hierarchy(t, Config{})
	blockBytes := uint64(h.Model().BlockBytes())
	banks := uint64(h.Model().Banks())
	// Warm two blocks in the same bank and two in different banks, then
	// evict from L1 to force L2 hits.
	sameA, sameB := uint64(0x10000), 0x10000+banks*blockBytes
	h.Access(0, 0, sameA, false)
	h.Access(0, 1, sameB, false)
	// L1-evict by conflict: 4 ways per set.
	now := uint64(1_000_000)
	for i := 1; i <= 4; i++ {
		now = h.Access(now, 0, sameA+uint64(i)*64*64, false)
		now = h.Access(now, 1, sameB+uint64(i)*64*64, false)
	}
	start := now + 1000
	d0 := h.Access(start, 0, sameA, false)
	d1 := h.Access(start, 1, sameB, false)
	if d1 <= d0 {
		t.Errorf("same-bank L2 hits did not serialize: %d then %d", d0, d1)
	}
}

// TestStatsConservation: every L1 miss is either an L2 hit, an L2 miss, or
// an MSHR merge.
func TestStatsConservation(t *testing.T) {
	h := hierarchy(t, Config{})
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		addr := uint64(i%97) * 64 * uint64(1+i%13)
		now = h.Access(now, i%8, addr, i%4 == 0)
	}
	st := h.Stats()
	if st.L1Misses != st.L2Hits+st.L2Misses+st.MSHRMerges {
		t.Errorf("L1 misses %d != L2 hits %d + misses %d + merges %d",
			st.L1Misses, st.L2Hits, st.L2Misses, st.MSHRMerges)
	}
	if h.AvgHitLatencyCycles() <= 0 && st.L2Hits > 0 {
		t.Error("no hit latency recorded despite hits")
	}
}

// TestDeterminism: identical access sequences give identical timing and
// energy.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		h := hierarchy(t, Config{})
		now := uint64(0)
		for i := 0; i < 500; i++ {
			now = h.Access(now, i%8, uint64(i%37)*64*7, i%3 == 0)
		}
		_, e, _, _, _ := h.Model().Stats()
		return now, e
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Errorf("nondeterministic: (%d,%g) vs (%d,%g)", t1, e1, t2, e2)
	}
}

// TestSchemeChangesEnergyNotFunctionality: the same access stream through
// binary and DESC differs in energy but not in hit/miss behavior.
func TestSchemeChangesEnergyNotFunctionality(t *testing.T) {
	run := func(scheme string, wires int) (Stats, float64) {
		h := hierarchy(t, Config{L2: cachemodel.Config{Scheme: scheme, DataWires: wires}})
		now := uint64(0)
		for i := 0; i < 1000; i++ {
			now = h.Access(now, i%8, uint64(i%53)*64*3, i%5 == 0)
		}
		_, e, _, _, _ := h.Model().Stats()
		return h.Stats(), e
	}
	sb, eb := run("binary", 64)
	sd, ed := run("desc-zero", 128)
	if sb.L1Misses != sd.L1Misses || sb.L2Misses != sd.L2Misses {
		t.Error("transfer scheme changed functional cache behavior")
	}
	if ed >= eb {
		t.Errorf("zero-skipped DESC energy %g not below binary %g on this stream", ed, eb)
	}
}

func TestBankSchedReserve(t *testing.T) {
	var b bankSched
	// First reservation starts immediately.
	if s := b.reserve(100, 10); s != 100 {
		t.Errorf("first reserve at %d, want 100", s)
	}
	// Overlapping request queues behind it.
	if s := b.reserve(105, 10); s != 110 {
		t.Errorf("overlap reserve at %d, want 110", s)
	}
	// A future reservation leaves the earlier gap usable.
	if s := b.reserve(500, 10); s != 500 {
		t.Errorf("future reserve at %d, want 500", s)
	}
	if s := b.reserve(130, 10); s != 130 {
		t.Errorf("gap before future reservation unusable: got %d, want 130", s)
	}
	// A long job that cannot fit before the future reservation goes
	// after it.
	if s := b.reserve(495, 100); s != 510 {
		t.Errorf("long job at %d, want 510", s)
	}
	// Zero-duration requests still occupy a cycle.
	if s := b.reserve(1000, 0); s != 1000 {
		t.Errorf("zero-duration reserve at %d", s)
	}
	if s := b.reserve(1000, 1); s != 1001 {
		t.Errorf("reserve behind a zero-duration request at %d, want 1001", s)
	}

	// A request more than pruneSlack cycles ahead prunes every interval
	// that ended before its horizon (9000-pruneSlack): a later straggler
	// no longer queues behind them, but still queues behind the live one.
	var p bankSched
	p.reserve(100, 10)
	if s := p.reserve(9000, 10); s != 9000 {
		t.Errorf("reserve far ahead at %d, want 9000", s)
	}
	if live := p.iv[p.head:]; len(live) != 1 || live[0] != (busyInterval{9000, 9010}) {
		t.Errorf("live intervals after prune %v, want [{9000 9010}]", live)
	}
	if s := p.reserve(105, 10); s != 105 {
		t.Errorf("straggler behind a pruned interval at %d, want 105", s)
	}
	if s := p.reserve(9003, 4); s != 9010 {
		t.Errorf("request behind the live interval at %d, want 9010", s)
	}
}

// TestPrefetcher: with next-line prefetching on, sequential streams find
// later blocks already in the L2, and the prefetch counters balance.
func TestPrefetcher(t *testing.T) {
	run := func(pf bool) (Stats, uint64) {
		h, err := New(Config{PrefetchNextLine: pf}, fixedSource(3))
		if err != nil {
			t.Fatal(err)
		}
		now := uint64(0)
		// A long sequential sweep, twice (second pass exercises hits).
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 3000; i++ {
				now = h.Access(now, 0, uint64(0x100000+i*64), false)
			}
		}
		return h.Stats(), now
	}
	off, _ := run(false)
	on, _ := run(true)
	if on.PrefetchFills == 0 {
		t.Fatal("prefetcher issued nothing on a sequential stream")
	}
	if on.PrefetchHits == 0 {
		t.Error("no prefetch was ever useful on a sequential stream")
	}
	if on.PrefetchHits > on.PrefetchFills {
		t.Error("more useful prefetches than fills")
	}
	// Prefetching converts demand L2 misses into hits.
	if on.L2Misses >= off.L2Misses {
		t.Errorf("prefetching did not reduce L2 misses: %d vs %d", on.L2Misses, off.L2Misses)
	}
}

// TestFillTimesMatchesMap drives the MSHR table through several doublings
// with block addresses that collide in their low bits, and checks every
// lookup against a Go map holding the same updates.
func TestFillTimesMatchesMap(t *testing.T) {
	ft := newFillTimes()
	want := map[uint64]uint64{}
	x := uint64(1)
	for i := 0; i < 20_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 40) << 16 // block aligned, low bits all zero
		if i%3 == 0 && i > 0 {
			addr = uint64(i/3-1) << 16 // revisit an earlier block
		}
		ft.set(addr, uint64(i))
		want[addr] = uint64(i)
		// A neighbouring block, present only if it was set earlier.
		probe := addr + 64<<16
		got, ok := ft.get(probe)
		w, wok := want[probe]
		if ok != wok || got != w {
			t.Fatalf("get(%#x) = %d, %v; want %d, %v", probe, got, ok, w, wok)
		}
	}
	if ft.n != len(want) || 2*ft.n > len(ft.slots) {
		t.Fatalf("%d entries in %d slots; want %d entries, at most half full", ft.n, len(ft.slots), len(want))
	}
	for addr, w := range want {
		if got, ok := ft.get(addr); !ok || got != w {
			t.Fatalf("get(%#x) = %d, %v; want %d, true", addr, got, ok, w)
		}
	}
}
