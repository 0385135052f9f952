package cachesim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/cpusim"
	"desc/internal/trace"
	"desc/internal/workload"
)

// The access digest is a per-access oracle for the hierarchy: it replays a
// recorded trace of every workload profile through Hierarchy.Access and
// pins a hash of every completion cycle it returns, the final Stats, and
// the exact bits of the L2 and DRAM energy totals. Two cpusim runs over
// recorded traces pin the scheduler on top of it. A rewrite of the cache
// arrays, the bank schedule or the core scheduler must leave the file
// unchanged.
//
// After an intentional change to simulated behaviour, regenerate with:
//
//	go test -run TestAccessDigestGolden -update-digest ./internal/cachesim
var updateDigest = flag.Bool("update-digest", false, "regenerate testdata/access_digest.json")

const digestPath = "testdata/access_digest.json"

// digestCores is the number of cores (and recorded contexts) of a replay;
// digestRefs is the number of references each core issues.
const (
	digestCores = 8
	digestRefs  = 2000
	digestSeed  = 23
)

// digestGeometries are the hierarchies every profile is replayed through:
// the default, S-NUCA-1's 128 banks, next-line prefetching, a bank count
// that is not a power of two, and an L2 small enough that its sets fill
// and evict dirty victims.
var digestGeometries = []struct {
	name string
	cfg  cachesim.Config
}{
	{"default", cachesim.Config{}},
	{"nuca128", cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128, Banks: 128, NUCA: true}}},
	{"prefetch", cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}, PrefetchNextLine: true}},
	{"banks6-6mb", cachesim.Config{L2: cachemodel.Config{Scheme: "bic", DataWires: 64, Banks: 6, CapacityBytes: 6 << 20}}},
	{"small-256k", cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128, Banks: 4, CapacityBytes: 256 << 10}}},
}

// digestEntry is one replay's outcome with floats as IEEE-754 bits.
type digestEntry struct {
	Name       string         `json:"name"`
	CycleHash  uint64         `json:"cycle_hash,omitempty"`
	Cycles     uint64         `json:"cycles,omitempty"`
	Instr      uint64         `json:"instructions,omitempty"`
	MemRefs    uint64         `json:"mem_refs,omitempty"`
	AvgHitBits uint64         `json:"avg_hit_bits,omitempty"`
	Stats      cachesim.Stats `json:"stats"`
	EnergyBits [4]uint64      `json:"energy_bits"` // L2 total, H-tree, array, DRAM
	XferCycles uint64         `json:"xfer_cycles"`
}

// capture records nctx contexts of prof, refs references each, and
// returns the replay source for them.
func capture(t testing.TB, prof workload.Profile, nctx, refs int) *trace.ReplaySource {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.Capture(workload.NewGenerator(prof, digestSeed), digestSeed, nctx, refs, &buf); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewReplaySource(r)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// finish fills e's stats and energy from h and releases h.
func finish(e *digestEntry, h *cachesim.Hierarchy) {
	_, total, htree, array, xfer := h.Model().Stats()
	_, _, dram := h.DRAM().Stats()
	e.Stats = h.Stats()
	e.EnergyBits = [4]uint64{math.Float64bits(total), math.Float64bits(htree), math.Float64bits(array), math.Float64bits(dram)}
	e.XferCycles = xfer
	h.Release()
}

// replay issues each core's recorded references in turn, every core
// starting its next reference when its previous one completes, so cores
// drift apart in time and reach the banks out of order.
func replay(t *testing.T, name string, cfg cachesim.Config, src *trace.ReplaySource) digestEntry {
	t.Helper()
	gen, err := src.Generator()
	if err != nil {
		t.Fatal(err)
	}
	h, err := cachesim.New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]cpusim.AccessSource, digestCores)
	now := make([]uint64, digestCores)
	for c := range streams {
		streams[c] = src.Stream(c, digestCores)
	}
	hash := fnv.New64a()
	var word [8]byte
	for i := 0; i < digestRefs; i++ {
		for c, s := range streams {
			a := s.Next()
			now[c] = h.Access(now[c]+uint64(a.Gap), c, a.Addr, a.Write)
			binary.LittleEndian.PutUint64(word[:], now[c])
			hash.Write(word[:])
		}
	}
	e := digestEntry{Name: name, CycleHash: hash.Sum64()}
	finish(&e, h)
	return e
}

// simulate runs cpusim over a recorded trace.
func simulate(t *testing.T, name string, cfg cpusim.Config, hcfg cachesim.Config, src *trace.ReplaySource) digestEntry {
	t.Helper()
	gen, err := src.Generator()
	if err != nil {
		t.Fatal(err)
	}
	h, err := cachesim.New(hcfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpusim.RunWith(context.Background(), cfg, h, src)
	if err != nil {
		t.Fatal(err)
	}
	e := digestEntry{
		Name: name, Cycles: res.Cycles, Instr: res.Instructions, MemRefs: res.MemRefs,
		AvgHitBits: math.Float64bits(res.AvgHitLatencyCycles),
	}
	finish(&e, h)
	return e
}

func accessDigest(t *testing.T) []digestEntry {
	var out []digestEntry
	profiles := append(workload.Parallel(), workload.SPEC()...)
	for _, prof := range profiles {
		src := capture(t, prof, digestCores, digestRefs)
		for _, g := range digestGeometries {
			out = append(out, replay(t, g.name+"/"+prof.Name, g.cfg, src))
		}
	}
	design := cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128}}
	mcf, _ := workload.ByName("mcf")
	out = append(out, simulate(t, "cpusim-ooo/mcf",
		cpusim.Config{Kind: cpusim.OutOfOrder, InstrPerContext: 20_000, Seed: digestSeed},
		design, capture(t, mcf, 1, 4000)))
	radix, _ := workload.ByName("Radix")
	out = append(out, simulate(t, "cpusim-mt/Radix",
		cpusim.Config{Kind: cpusim.InOrderMT, InstrPerContext: 3_000, Seed: digestSeed},
		design, capture(t, radix, 32, 1000)))
	return out
}

func TestAccessDigestGolden(t *testing.T) {
	got := accessDigest(t)
	if *updateDigest {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), digestPath)
		return
	}
	data, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-digest)", err)
	}
	var want []digestEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s differs from golden:\n got %+v\nwant %+v", got[i].Name, got[i], want[i])
		}
	}
}
