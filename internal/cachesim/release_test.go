package cachesim

import (
	"strings"
	"testing"

	"desc/internal/cachemodel"
	"desc/internal/workload"
)

// drive replays n references per core from the workload's access streams
// through h, each core issuing its next reference once the previous one
// completes, and returns the hierarchy's stats and the L2 model's totals.
func drive(h *Hierarchy, gen *workload.Generator, n int) (Stats, [2]float64) {
	cores := len(h.l1)
	streams := make([]*workload.Stream, cores)
	now := make([]uint64, cores)
	for c := range streams {
		streams[c] = gen.Stream(c, cores)
	}
	for i := 0; i < n; i++ {
		for c, s := range streams {
			a := s.Next()
			now[c] = h.Access(now[c]+uint64(a.Gap), c, a.Addr, a.Write)
		}
	}
	_, energyJ, htreeJ, _, _ := h.Model().Stats()
	return h.Stats(), [2]float64{energyJ, htreeJ}
}

// releaseGeometries are the L2 shapes the reuse tests run: the design
// point, and a small prefetching cache whose sets all fill and evict.
var releaseGeometries = []Config{
	{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}},
	{L2: cachemodel.Config{Scheme: "binary", DataWires: 64, CapacityBytes: 1 << 20, Banks: 4}, PrefetchNextLine: true},
}

// TestReleasedTableMatchesFresh: after a real run and Release, the pooled
// L2 table equals newLineTable's, with no set left marked; and a hierarchy
// built on the recycled table reproduces the run exactly.
func TestReleasedTableMatchesFresh(t *testing.T) {
	l2Tables.mu.Lock()
	l2Tables.free = nil // only this test's tables from here on
	l2Tables.mu.Unlock()
	prof, _ := workload.ByName("Ocean")
	gen := workload.NewGenerator(prof, 11)
	for _, cfg := range releaseGeometries {
		h, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, wantEnergy := drive(h, gen, 3000)
		table := h.l2
		sets, ways := len(table.lines)/table.ways, table.ways
		marked := 0
		for _, w := range table.touched {
			for ; w != 0; w &= w - 1 {
				marked++
			}
		}
		if marked == 0 || wantStats.L2Misses == 0 {
			t.Fatalf("%d sets: the run allocated nothing in the L2", sets)
		}
		h.Release()

		fresh := newLineTable(sets, ways)
		for i := range fresh.lines {
			if table.lines[i] != fresh.lines[i] {
				t.Fatalf("%d sets: released line %d is %+v, fresh %+v", sets, i, table.lines[i], fresh.lines[i])
			}
		}
		for i, w := range table.touched {
			if w != 0 {
				t.Fatalf("%d sets: touched word %d still %#x after Release", sets, i, w)
			}
		}
		if got := h.Stats(); got != wantStats {
			t.Errorf("%d sets: Stats changed by Release", sets)
		}

		again, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		if again.l2 != table {
			t.Fatalf("%d sets: New did not reuse the released table", sets)
		}
		gotStats, gotEnergy := drive(again, gen, 3000)
		if gotStats != wantStats || gotEnergy != wantEnergy {
			t.Errorf("%d sets: run on the recycled table differs:\n got %+v %v\nwant %+v %v",
				sets, gotStats, gotEnergy, wantStats, wantEnergy)
		}
		again.Release()
	}
}

// TestReleasedTableUseFails: using a hierarchy after Release, or releasing
// it twice, panics instead of touching a table another run may own.
func TestReleasedTableUseFails(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "released") {
				t.Errorf("%s after Release: recovered %v, want a panic naming the release", what, r)
			}
		}()
		f()
	}
	h := hierarchy(t, Config{})
	h.Access(0, 0, 0x4000, false)
	h.Release()
	mustPanic("Access to a cached block", func() { h.Access(100, 0, 0x4000, false) })
	mustPanic("Access", func() { h.Access(100, 1, 0x8000, true) })
	mustPanic("Release", h.Release)
}
