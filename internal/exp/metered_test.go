package exp

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"desc/internal/cpusim"
	"desc/internal/metrics"
	"desc/internal/workload"
)

// updateMetered regenerates testdata/metered_snapshot.json. Pass it after
// the package path, and only for an intended change of some simulator
// count:
//
//	go test -run TestMeteredRunSnapshot ./internal/exp -update-metered
var updateMetered = flag.Bool("update-metered", false, "regenerate testdata/metered_snapshot.json")

// meteredSnapshot is the part of one metered run's registry that the
// simulator layers write: every counter and histogram under cachesim/,
// link/ and cpusim/.
type meteredSnapshot struct {
	Counters   map[string]uint64        `json:"counters"`
	Histograms []metrics.HistogramValue `json:"histograms"`
}

// simulatorOwned reports whether name is an instrument the golden pins.
// Counters named *_cancelled are left out: they count work cut short by a
// cancelled run, so on a finished run they are always 0 and pin nothing
// but their own registration, which the simulator need not make.
func simulatorOwned(name string) bool {
	if strings.HasSuffix(name, "_cancelled") {
		return false
	}
	for _, p := range []string{"cachesim/", "link/", "cpusim/"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// TestMeteredRunSnapshot runs one metered RunOne per scheme on its own
// registry and pins every simulator counter and histogram bucket to a
// golden, then checks that the counts agree with the run's own results:
// each cachesim counter with its Stats field, the transfers the hierarchy
// started with the link's accesses, and the transfer-cycle histogram with
// the link's access and cycle totals.
func TestMeteredRunSnapshot(t *testing.T) {
	opt := Options{Quick: true, InstrPerContext: 2_000, Seed: 3401}
	prof := workload.Parallel()[0]
	specs := []SystemSpec{
		BinaryBase(),
		DESCZero(),
		// Prefetching, so the prefetch counters are not all zero.
		{Scheme: "desc-last", DataWires: 128, ChunkBits: 4, Prefetch: true},
	}
	got := map[string]meteredSnapshot{}
	for _, spec := range specs {
		reg := metrics.NewRegistry()
		res, err := mustRunner(opt, WithMetrics(reg)).RunOne(context.Background(), spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		ms := meteredSnapshot{Counters: map[string]uint64{}}
		for _, c := range snap.Counters {
			if simulatorOwned(c.Name) {
				ms.Counters[c.Name] = c.Value
			}
		}
		for _, h := range snap.Histograms {
			if simulatorOwned(h.Name) {
				ms.Histograms = append(ms.Histograms, h)
			}
		}
		got[spec.Scheme] = ms

		st := res.Sim.Hierarchy
		link := "link/" + spec.Scheme + "/"
		for name, want := range map[string]uint64{ //desclint:allow determinism failure reporting only
			"cachesim/l1_hits":            st.L1Hits,
			"cachesim/l1_misses":          st.L1Misses,
			"cachesim/l2_hits":            st.L2Hits,
			"cachesim/l2_misses":          st.L2Misses,
			"cachesim/l2_writebacks":      st.L2Writebacks,
			"cachesim/mshr_merges":        st.MSHRMerges,
			"cachesim/invalidations":      st.Invalidations,
			"cachesim/prefetch_fills":     st.PrefetchFills,
			"cachesim/prefetch_hits":      st.PrefetchHits,
			"cachesim/queue_delay_cycles": st.QueueDelaySumCycles,
			"cachesim/l2_transfers":       ms.Counters[link+"accesses"],
		} {
			if got, ok := ms.Counters[name]; !ok || got != want {
				t.Errorf("%s: %s = %d (present %v), want %d", spec.Scheme, name, got, ok, want)
			}
		}
		var hist *metrics.HistogramValue
		for i := range ms.Histograms {
			if ms.Histograms[i].Name == link+"transfer_cycles_hist" {
				hist = &ms.Histograms[i]
			}
		}
		if hist == nil {
			t.Errorf("%s: no %stransfer_cycles_hist", spec.Scheme, link)
			continue
		}
		if hist.Count != ms.Counters[link+"accesses"] || hist.Sum != ms.Counters[link+"transfer_cycles"] {
			t.Errorf("%s: histogram count %d sum %d, want accesses %d and transfer_cycles %d",
				spec.Scheme, hist.Count, hist.Sum, ms.Counters[link+"accesses"], ms.Counters[link+"transfer_cycles"])
		}
		if ms.Counters[link+"accesses"] == 0 || ms.Counters["cpusim/quanta"] == 0 {
			t.Errorf("%s: a metered run recorded no link accesses or no quanta", spec.Scheme)
		}
	}

	path := filepath.Join("testdata", "metered_snapshot.json")
	if *updateMetered {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with: go test -run TestMeteredRunSnapshot ./internal/exp -update-metered)", err)
	}
	var want map[string]meteredSnapshot
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		g, w := got[spec.Scheme], want[spec.Scheme]
		if !reflect.DeepEqual(g.Counters, w.Counters) {
			t.Errorf("%s: counters\n%v\ngolden\n%v", spec.Scheme, g.Counters, w.Counters)
		}
		if !reflect.DeepEqual(g.Histograms, w.Histograms) {
			t.Errorf("%s: histograms\n%+v\ngolden\n%+v", spec.Scheme, g.Histograms, w.Histograms)
		}
	}
	if len(want) != len(specs) {
		t.Errorf("golden has %d schemes, want %d", len(want), len(specs))
	}
}

// TestCancelledRunPublishesNoCounts: a run that does not finish adds no
// hierarchy or link counts to the registry, not even zeros.
func TestCancelledRunPublishesNoCounts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen := workload.NewGenerator(workload.Parallel()[0], 1)
	reg := metrics.NewRegistry()
	if _, err := Simulate(ctx, DESCZero(), gen, cpusim.Streams(gen), 2_000, reg); err == nil {
		t.Fatal("Simulate on a cancelled context succeeded")
	}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "cachesim/") || strings.HasPrefix(c.Name, "link/") {
			t.Errorf("cancelled run registered %s = %d", c.Name, c.Value)
		}
	}
	if len(snap.Histograms) != 0 {
		t.Errorf("cancelled run registered %d histograms", len(snap.Histograms))
	}
}
