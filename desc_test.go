package desc

import (
	"bytes"
	"strings"
	"testing"
)

// TestPublicCodecAPI walks the README quickstart path.
func TestPublicCodecAPI(t *testing.T) {
	c, err := NewCodec(512, 4, 128, SkipZero)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 64)
	block[0] = 0x53
	cost := c.Send(block)
	if cost.Flips.Data == 0 || cost.Cycles == 0 {
		t.Errorf("degenerate cost %+v", cost)
	}

	ch, err := NewChannel(512, 4, 128, SkipLast, 1)
	if err != nil {
		t.Fatal(err)
	}
	cost2, decoded := ch.Send(block)
	if !bytes.Equal(decoded, block) {
		t.Error("channel did not decode the block")
	}
	if cost2.Cycles == 0 {
		t.Error("channel reported zero occupancy")
	}
}

func TestSchemesAndLinks(t *testing.T) {
	names := Schemes()
	if len(names) < 9 {
		t.Fatalf("only %d schemes registered: %v", len(names), names)
	}
	for _, n := range names {
		l, err := NewLink(LinkSpec{Scheme: n, BlockBits: 512, DataWires: 64, ChunkBits: 4, SegmentBits: 8})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if l.BlockBytes() != 64 {
			t.Errorf("%s: block bytes %d", n, l.BlockBytes())
		}
	}
	if _, err := NewLink(LinkSpec{Scheme: "nope", BlockBits: 512, DataWires: 64}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(Benchmarks()) != 16 {
		t.Errorf("parallel benchmarks = %d, want 16 (Table 2)", len(Benchmarks()))
	}
	if len(SPECBenchmarks()) != 8 {
		t.Errorf("SPEC benchmarks = %d, want 8 (Table 2)", len(SPECBenchmarks()))
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	res, err := Simulate(SystemConfig{
		Scheme:          "desc-zero",
		DataWires:       128,
		InstrPerContext: 3_000,
	}, "Radix")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions != 8*4*3_000 {
		t.Errorf("run shape wrong: %+v", res)
	}
	if res.L2EnergyJ <= 0 || res.ProcessorEnergyJ <= res.L2EnergyJ {
		t.Errorf("energy accounting wrong: L2=%v proc=%v", res.L2EnergyJ, res.ProcessorEnergyJ)
	}
	sum := res.HTreeJ + res.ArrayJ + res.StaticJ
	if diff := sum - res.L2EnergyJ; diff > 1e-12 || diff < -1e-12 {
		t.Error("L2 components do not sum")
	}
	if _, err := Simulate(SystemConfig{}, "NotABenchmark"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestSimulateInputValidation: inputs the system cannot simulate fail with
// an error naming the layer that rejects them, instead of panicking or
// running as some other configuration; unusual but valid inputs still run.
func TestSimulateInputValidation(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     SystemConfig
		wantErr string // "" = must simulate
	}{
		{"capacity below one set", SystemConfig{CapacityBytes: 1000}, "cachesim: "},
		{"unknown core kind", SystemConfig{Kind: 7}, "cpusim: unknown core kind 7"},
		{"negative ECC segment", SystemConfig{ECCSegmentBits: -1}, "exp: "},
		{"ECC over 32-bit segments", SystemConfig{ECCSegmentBits: 32}, ""},
		{"ECC over 128-bit segments", SystemConfig{ECCSegmentBits: 128}, ""},
		{"out-of-order core", SystemConfig{Kind: OutOfOrder}, ""},
		{"unknown scheme with bad geometry", SystemConfig{Scheme: "bogus", DataWires: -1}, `link: unknown scheme "bogus"`},
	} {
		c.cfg.InstrPerContext = 500
		res, err := Simulate(c.cfg, "Art")
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr == "" && res.Cycles == 0:
			t.Errorf("%s: empty result %+v", c.name, res)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantErr)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 24 {
		t.Fatalf("only %d experiments: %v", len(ids), ids)
	}
	title, err := ExperimentTitle("fig16")
	if err != nil || title == "" {
		t.Errorf("fig16 title: %q, %v", title, err)
	}
	if _, err := ExperimentTitle("figXX"); err == nil {
		t.Error("unknown experiment accepted")
	}
	tables, err := RunExperiment("fig10", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || tables[0].NumRows() == 0 {
		t.Error("experiment produced no tables")
	}
	if _, err := RunExperiment("figXX", true); err == nil {
		t.Error("unknown experiment ran")
	}
}

func TestTechnologyNodes(t *testing.T) {
	nodes := TechnologyNodes()
	if len(nodes) != 2 || nodes[0].Name != "45nm" || nodes[1].Name != "22nm" {
		t.Errorf("nodes = %+v, want Table 3's 45nm and 22nm", nodes)
	}
}
