package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The benchmark reads testdata/ from the repository root, as it does
// when run.sh starts it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 3, seconds: 1, trace: trace, workDir: t.TempDir(), sc: tinyScale, steps: 2}
}

// TestEveryWorkloadEmitsEveryMetric runs every declared workload at a
// tiny scale, untraced and traced, and checks the output carries exactly
// the declared metrics with their units and that every check passed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			res, _, err := run(context.Background(), tinyConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				if !ok || got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", name, traced, metric, got, unit)
				}
			}
			if !traced {
				for metric, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g, want > 0", name, metric, v.Value)
					}
				}
			}
		}
	}
}

// TestTracedSpansNest checks the trace file of every workload: each
// span ends after it starts and lies inside its parent, and the traced
// ops are fully accounted for.
func TestTracedSpansNest(t *testing.T) {
	for name := range workloads {
		cfg := tinyConfig(t, name, true)
		res, _, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := os.ReadFile(filepath.Join(cfg.workDir, "traces", name+"-seed3.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		ops := 0
		for _, s := range doc.Spans {
			if s.End < s.Start {
				t.Errorf("%s: span %s ends before it starts", name, s.Name)
			}
			if s.Name == opSpan {
				ops++
			}
			if s.Parent < 0 {
				continue
			}
			p := doc.Spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %s [%d,%d] escapes its parent %s [%d,%d]", name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if ops == 0 {
			t.Errorf("%s: no op spans", name)
		}
		if c := res.Metrics["trace.coverage"].Value; c <= 0 || c > 1 {
			t.Errorf("%s: trace.coverage %g outside (0,1]", name, c)
		}
	}
}

// The output checks must reject a deliberately wrong expected value.

func TestGoldenCheckRejectsWrongValue(t *testing.T) {
	want, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := checkGolden(context.Background(), want); err != nil || len(bad) != 0 {
		t.Fatalf("golden check on the real values: bad=%v err=%v", bad, err)
	}
	g := want["desc-zero"]
	g.Cycles++
	want["desc-zero"] = g
	if bad, err := checkGolden(context.Background(), want); err != nil || len(bad) != 1 {
		t.Fatalf("golden check with a wrong desc-zero value: bad=%v err=%v", bad, err)
	}
}

// failedSteps sets a workload up, corrupts its expected value with
// spoil, and returns how many ops of one untraced and one traced step
// failed out of how many.
func failedSteps(t *testing.T, name string, spoil func(w benchWorkload)) (failed, ops int) {
	t.Helper()
	w, err := workloads[name].make(tinyScale, 3, t.TempDir(), &layerCounts{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if bad, err := w.setup(context.Background()); err != nil || len(bad) != 0 {
		t.Fatalf("%s set-up: bad=%v err=%v", name, bad, err)
	}
	spoil(w)
	n := 0
	next := func() int { n++; return n - 1 }
	for _, tr := range []*tracer{nil, newTracer()} {
		sr, err := w.step(context.Background(), tr, next)
		if err != nil {
			t.Fatal(err)
		}
		failed += sr.failed
		ops += len(sr.opMS)
	}
	return failed, ops
}

func TestOutputChecksRejectWrongValues(t *testing.T) {
	cases := map[string]func(w benchWorkload){
		"sim-design-point": func(w benchWorkload) { w.(*simDesignPoint).want[0].Cycles++ },
		"sweep-cold":       func(w benchWorkload) { w.(sweepCold).ref = []byte("wrong tables") },
		"sweep-warm":       func(w benchWorkload) { w.(*sweepWarm).ref = []byte("wrong tables") },
		"serve-encode":     func(w benchWorkload) { w.(*serveEncode).want.Cycles++ },
	}
	for name, spoil := range cases {
		failed, ops := failedSteps(t, name, spoil)
		if failed == 0 {
			t.Errorf("%s: a wrong expected value failed none of %d ops", name, ops)
		}
		if clean, _ := failedSteps(t, name, func(benchWorkload) {}); clean != 0 {
			t.Errorf("%s: %d ops failed with the right expected values", name, clean)
		}
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqr(xs); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("iqr = %g, want 5.5", got)
	}
}

// TestScaleAtUsesNeighbouringBursts checks that a step is scaled by the
// mean of the kernel bursts either side of it, and a step outside them by
// the nearest one.
func TestScaleAtUsesNeighbouringBursts(t *testing.T) {
	t0 := time.Now()
	h := &hostRef{bursts: []kernelBurst{{t0, 10}, {t0.Add(time.Second), 20}, {t0.Add(2 * time.Second), 40}}}
	for _, c := range []struct {
		end    time.Time
		kernel float64
	}{
		{t0.Add(-time.Second), 10},
		{t0.Add(time.Second / 2), 15},
		{t0.Add(3 * time.Second / 2), 30},
		{t0.Add(3 * time.Second), 40},
	} {
		if got, want := h.scaleAt(c.end), refKernelMS/c.kernel; math.Abs(got-want) > 1e-12 {
			t.Errorf("scaleAt(t0%+v) = %g, want %g", c.end.Sub(t0), got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(lat, count float64) map[string]metric {
		return map[string]metric{"op_ms_p50": {lat, "ms"}, "exp.runs_started": {count, "count"}, "ops_per_s": {1000 / lat, "1/s"}}
	}
	a := []map[string]metric{run(10, 5), run(11, 5), run(12, 5), run(10.5, 5)}
	cases := []struct {
		b    []map[string]metric
		want map[string]string
	}{
		{[]map[string]metric{run(10.8, 5), run(11.1, 5)}, map[string]string{"op_ms_p50": "unresolved", "exp.runs_started": "unchanged"}},
		{[]map[string]metric{run(20, 6), run(21, 6)}, map[string]string{"op_ms_p50": "worse", "ops_per_s": "worse", "exp.runs_started": "worse"}},
		{[]map[string]metric{run(5, 5), run(5.5, 5)}, map[string]string{"op_ms_p50": "better", "ops_per_s": "better"}},
	}
	for i, c := range cases {
		rows := compareRuns(a, c.b)
		for metric, verdict := range c.want {
			found := false
			for _, r := range rows {
				if strings.HasPrefix(r, metric+" ") {
					found = true
					if !strings.Contains(r, verdict) {
						t.Errorf("case %d: %s row %q, want verdict %s", i, metric, r, verdict)
					}
				}
			}
			if !found {
				t.Errorf("case %d: no row for %s", i, metric)
			}
		}
	}
}
