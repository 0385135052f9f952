package desc

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The golden cost vectors pin the exact per-block link.Cost of every
// registered scheme on a fixed adversarial-plus-random block sequence.
// Any kernel change that shifts a single flip count — and would therefore
// silently change paper results — fails this test. After an *intentional*
// semantic change, regenerate with:
//
//	go test -run TestGoldenCosts -update .
var updateGolden = flag.Bool("update", false, "regenerate testdata/golden_costs.json")

const goldenCostsPath = "testdata/golden_costs.json"

// goldenCost is the JSON image of a link.Cost.
type goldenCost struct {
	Cycles  int64  `json:"cycles"`
	Data    uint64 `json:"data"`
	Control uint64 `json:"control"`
	Sync    uint64 `json:"sync,omitempty"`
}

// goldenBlocks is the deterministic 512-bit block sequence: the adversarial
// corners every skip variant special-cases (all zero, all ones, alternating,
// sparse, exact repeats), followed by seeded random traffic. Order matters:
// links are stateful, so the vectors pin inter-block history too.
func goldenBlocks() [][]byte {
	fill := func(v byte) []byte {
		b := make([]byte, 64)
		for i := range b {
			b[i] = v
		}
		return b
	}
	sparse := make([]byte, 64) // a single non-zero nibble
	sparse[17] = 0xB0

	blocks := [][]byte{
		make([]byte, 64), // all zero from the power-on state
		fill(0xFF),       // all ones
		fill(0xFF),       // exact repeat (last-value skip fully matches)
		fill(0xAA),       // alternating bits
		fill(0x11),       // every chunk = 1
		sparse,
		make([]byte, 64), // return to zero
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		b := make([]byte, 64)
		rng.Read(b)
		blocks = append(blocks, b)
	}
	// One more exact repeat, now with warm random history.
	blocks = append(blocks, append([]byte(nil), blocks[len(blocks)-1]...))
	return blocks
}

// goldenCostsFor replays the golden sequence through one scheme.
func goldenCostsFor(t *testing.T, scheme string) []goldenCost {
	t.Helper()
	l, err := NewLink(LinkSpec{
		Scheme: scheme, BlockBits: 512, DataWires: 64,
		ChunkBits: 4, SegmentBits: 8,
	})
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	var out []goldenCost
	for _, b := range goldenBlocks() {
		c := l.Send(b)
		out = append(out, goldenCost{
			Cycles: c.Cycles, Data: c.Flips.Data,
			Control: c.Flips.Control, Sync: c.Flips.Sync,
		})
	}
	return out
}

func TestGoldenCosts(t *testing.T) {
	got := map[string][]goldenCost{}
	for _, scheme := range Schemes() {
		got[scheme] = goldenCostsFor(t, scheme)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCostsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCostsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenCostsPath)
		return
	}

	data, err := os.ReadFile(goldenCostsPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test -run TestGoldenCosts -update .)", err)
	}
	want := map[string][]goldenCost{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	for scheme, costs := range got {
		pinned, ok := want[scheme]
		if !ok {
			t.Errorf("%s: no golden vector (regenerate with -update)", scheme)
			continue
		}
		for i := range costs {
			if i >= len(pinned) || costs[i] != pinned[i] {
				t.Errorf("%s: block %d cost %+v diverges from golden %+v",
					scheme, i, costs[i], at(pinned, i))
			}
		}
		if len(pinned) != len(costs) {
			t.Errorf("%s: %d golden vectors for %d blocks", scheme, len(pinned), len(costs))
		}
	}
	for scheme := range want {
		if _, ok := got[scheme]; !ok {
			t.Errorf("%s: golden vector for unregistered scheme (regenerate with -update)", scheme)
		}
	}
}

// at indexes safely for error messages on length mismatches.
func at(cs []goldenCost, i int) goldenCost {
	if i < len(cs) {
		return cs[i]
	}
	return goldenCost{}
}

const goldenExtCostsPath = "testdata/golden_costs_ext.json"

// goldenExtSpecs enumerates the geometry variants behind the extended
// golden vectors: the shapes the widened word kernels newly cover (8-bit
// chunks, partial final rounds, wire counts off the primary design
// point) plus one permanently-scalar shape per family as a control. The
// vectors were generated from the scalar implementations before the
// kernels were widened, so the word paths are pinned to the pre-rewrite
// costs, not merely to themselves.
func goldenExtSpecs() map[string]LinkSpec {
	specs := map[string]LinkSpec{}
	for _, scheme := range []string{"desc-basic", "desc-zero", "desc-last", "desc-adaptive"} {
		for _, g := range []struct {
			tag           string
			wires, chunks int
		}{
			{"w48c4", 48, 4}, // partial final round (128 chunks over 48 wires)
			{"w80c4", 80, 4}, // partial final round, multi-word tail
			{"w64c8", 64, 8}, // 8-bit chunks
			{"w48c8", 48, 8}, // 8-bit chunks with a partial final round
			{"w24c4", 24, 4}, // scalar control: wires not a whole word of lanes
		} {
			specs[scheme+"@"+g.tag] = LinkSpec{
				Scheme: scheme, BlockBits: 512, DataWires: g.wires, ChunkBits: g.chunks,
			}
		}
	}
	for _, scheme := range []string{"bic", "bic-zs", "bic-ezs", "dzc"} {
		for _, g := range []struct {
			tag        string
			wires, seg int
		}{
			{"w128s8", 128, 8}, // byte segments, two state words
			{"w64s16", 64, 16}, // scalar control: non-byte segments
			{"w64s32", 64, 32}, // scalar control: non-byte segments
		} {
			specs[scheme+"@"+g.tag] = LinkSpec{
				Scheme: scheme, BlockBits: 512, DataWires: g.wires, SegmentBits: g.seg,
			}
		}
	}
	// The literature codecs across the segment-width sweep, generated
	// from the bit-serial per-segment implementation before the
	// beat-level word path replaced it.
	for _, scheme := range []string{"fpf", "lwc"} {
		for _, g := range []struct {
			tag        string
			wires, seg int
		}{
			{"w64s4", 64, 4},
			{"w64s16", 64, 16},
			{"w64s32", 64, 32},
			{"w64s64", 64, 64}, // one segment spanning the word, spare wire beyond it
			{"w128s8", 128, 8}, // two words per beat
			{"w60s10", 60, 10}, // beats not byte aligned, partial final beat
		} {
			specs[scheme+"@"+g.tag] = LinkSpec{
				Scheme: scheme, BlockBits: 512, DataWires: g.wires, SegmentBits: g.seg,
			}
		}
	}
	// The dense bus-invert mode field on both sides of the one-word
	// limit (3^40 < 2^64 < 3^41).
	specs["bic-ezs@w64s4"] = LinkSpec{Scheme: "bic-ezs", BlockBits: 512, DataWires: 64, SegmentBits: 4}
	specs["bic-ezs@w128s2"] = LinkSpec{Scheme: "bic-ezs", BlockBits: 512, DataWires: 128, SegmentBits: 2}
	return specs
}

// TestGoldenCostsExtended pins the per-block costs of the geometries the
// widened kernels opened (and their scalar controls), exactly as
// TestGoldenCosts pins the design points. Regenerate after an
// intentional semantic change with:
//
//	go test -run TestGoldenCostsExtended -update .
func TestGoldenCostsExtended(t *testing.T) {
	got := map[string][]goldenCost{}
	for key, spec := range goldenExtSpecs() {
		l, err := NewLink(spec)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		var costs []goldenCost
		for _, b := range goldenBlocks() {
			c := l.Send(b)
			costs = append(costs, goldenCost{
				Cycles: c.Cycles, Data: c.Flips.Data,
				Control: c.Flips.Control, Sync: c.Flips.Sync,
			})
		}
		got[key] = costs
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenExtCostsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenExtCostsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenExtCostsPath)
		return
	}

	data, err := os.ReadFile(goldenExtCostsPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test -run TestGoldenCostsExtended -update .)", err)
	}
	want := map[string][]goldenCost{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, costs := range got {
		pinned, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden vector (regenerate with -update)", key)
			continue
		}
		for i := range costs {
			if i >= len(pinned) || costs[i] != pinned[i] {
				t.Errorf("%s: block %d cost %+v diverges from golden %+v",
					key, i, costs[i], at(pinned, i))
			}
		}
		if len(pinned) != len(costs) {
			t.Errorf("%s: %d golden vectors for %d blocks", key, len(pinned), len(costs))
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden vector for unknown geometry (regenerate with -update)", key)
		}
	}
}

// TestGoldenBlocksStable guards the generator itself: the vectors are only
// as good as the block sequence being reproducible.
func TestGoldenBlocksStable(t *testing.T) {
	a, b := goldenBlocks(), goldenBlocks()
	if len(a) != len(b) {
		t.Fatalf("golden block count unstable: %d != %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("golden block %d not deterministic", i)
		}
	}
}
