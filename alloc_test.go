package desc

import "testing"

// TestSimulateAllocsIndependentOfLength pins the simulator's allocation
// profile: every allocation of a run is set-up (generator, hierarchy,
// streams, the grow-on-demand scratch of the scheduler and bank queues),
// so quadrupling the instruction budget must not add allocations beyond a
// small slack for the amortized growth of the MSHR map and bank
// schedules, and the total stays under a fixed ceiling.
func TestSimulateAllocsIndependentOfLength(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several short runs")
	}
	const (
		slack   = 8
		ceiling = 500
	)
	allocs := func(instr uint64) float64 {
		cfg := SystemConfig{Scheme: "desc-zero", DataWires: 128, InstrPerContext: instr, Seed: 3}
		return testing.AllocsPerRun(3, func() {
			if _, err := Simulate(cfg, "Radix"); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(1_000), allocs(4_000)
	t.Logf("allocs/run: %.0f at 1000 instr/ctx, %.0f at 4000", short, long)
	if long-short > slack || short-long > slack {
		t.Errorf("allocs/run %.0f at 1000 instr/ctx vs %.0f at 4000: differ by more than %d", short, long, slack)
	}
	if long > ceiling {
		t.Errorf("allocs/run %.0f at 4000 instr/ctx, want at most %d", long, ceiling)
	}
}
