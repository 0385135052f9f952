package desc

import (
	"strings"
	"testing"
)

// TestSimulateDeterministic is the runtime backstop for the desclint
// determinism pass: the same SystemConfig.Seed must produce a
// byte-identical SimResult on repeated runs. SimResult is a struct of
// scalars (cachesim.Stats included), so == is the byte-identity check.
//
// CI runs this with -race and the acceptance bar is 10 consecutive
// passes (go test -run TestSimulateDeterministic -count=10 .), which
// flushes out map-order and scheduling nondeterminism that a single run
// can miss.
func TestSimulateDeterministic(t *testing.T) {
	benchmarks := []string{"Art", "Radix"}
	cfg := SystemConfig{
		Scheme:          "desc-zero",
		DataWires:       128,
		ChunkBits:       4,
		Seed:            7,
		InstrPerContext: 12_000,
	}
	for _, bench := range benchmarks {
		first, err := Simulate(cfg, bench)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		for run := 2; run <= 3; run++ {
			again, err := Simulate(cfg, bench)
			if err != nil {
				t.Fatalf("%s run %d: %v", bench, run, err)
			}
			if again != first {
				t.Fatalf("%s: run %d differs from run 1 with identical seed:\nfirst: %+v\nagain: %+v",
					bench, run, first, again)
			}
		}
	}
}

// TestExperimentRenderDeterministic re-runs quick experiments from a cold
// run cache and requires the rendered tables — the artifact the
// repository actually publishes — to match byte for byte: fig12, which
// samples block values without simulating, and fig23, whose eight
// simulations read through the experiments' normalize-to-baseline path.
func TestExperimentRenderDeterministic(t *testing.T) {
	for _, id := range []string{"fig12", "fig23"} {
		render := func() string {
			// RunExperiment builds a fresh Runner per call, so the
			// second rendering recomputes from a cold run cache
			// instead of replaying the first.
			tables, err := RunExperiment(id, true)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, tab := range tables {
				b.WriteString(tab.Markdown())
			}
			return b.String()
		}
		first := render()
		if again := render(); again != first {
			t.Fatalf("%s rendered differently on a re-run with the same seed:\n--- first ---\n%s\n--- again ---\n%s", id, first, again)
		}
		if first == "" {
			t.Fatalf("%s rendered no output", id)
		}
	}
}
