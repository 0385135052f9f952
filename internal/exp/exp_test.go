package exp

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"desc/internal/stats"
	"desc/internal/workload"
)

// tiny returns the smallest useful experiment scale for tests.
func tiny() Options {
	return Options{Quick: true, InstrPerContext: 3_000, Seed: 1}
}

// testRunner returns a Runner over tiny() shared by the whole package's
// tests, so experiments exercised by several tests reuse cached runs.
var testRunner = sync.OnceValue(func() *Runner { return mustRunner(tiny()) })

// runByID plans and runs one experiment on the shared test Runner.
func runByID(t *testing.T, id string) []*stats.Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	tabs, err := testRunner().Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	return tabs
}

func TestRegistryCoversEvaluation(t *testing.T) {
	// Every evaluated figure of the paper must have an experiment.
	want := []string{
		"fig01", "fig02", "fig03", "fig05", "fig10", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "fig27",
		"fig28", "fig29", "fig30",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want at least %d", len(All()), len(want))
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("bogus id resolved")
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, tab *stats.Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Row(row)[col], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Row(row)[col], err)
	}
	return v
}

// findRow locates a row by its first cell.
func findRow(t *testing.T, tab *stats.Table, label string) int {
	t.Helper()
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Row(i)[0] == label {
			return i
		}
	}
	t.Fatalf("row %q not found", label)
	return -1
}

// TestFig03GoldenVector: the introductory example must match the paper
// exactly (4, 5, 3 flips).
func TestFig03GoldenVector(t *testing.T) {
	tabs := runByID(t, "fig03")
	tab := tabs[0]
	want := map[string]string{"Parallel": "4", "Serial": "5", "DESC": "3"}
	for label, flips := range want {
		r := findRow(t, tab, label)
		if tab.Row(r)[3] != flips {
			t.Errorf("%s flips = %s, want %s", label, tab.Row(r)[3], flips)
		}
	}
}

// TestFig16Shape: the headline comparison must rank the schemes the way
// the paper does — zero-skipped DESC best, every technique at or below
// binary, basic DESC between DZC and the bus-invert family.
func TestFig16Shape(t *testing.T) {
	tabs := runByID(t, "fig16")
	tab := tabs[0]
	geo := findRow(t, tab, "Geomean")
	get := func(col int) float64 { return cell(t, tab, geo, col) }
	binary, dzc, bic, bicZS := get(1), get(2), get(3), get(4)
	basic, zero, last := get(6), get(7), get(8)

	if binary != 1 {
		t.Errorf("binary normalizes to %v", binary)
	}
	if !(zero < last && last < basic) {
		t.Errorf("DESC variant ordering violated: zero=%v last=%v basic=%v", zero, last, basic)
	}
	if zero > 0.8 {
		t.Errorf("zero-skipped DESC %v; the paper reports a 1.81x reduction", zero)
	}
	if !(dzc < 1.02 && basic < dzc) {
		t.Errorf("basic DESC (%v) should beat DZC (%v), as in Section 5.2", basic, dzc)
	}
	if !(bic < basic) {
		t.Errorf("bus-invert (%v) should beat basic DESC (%v), as in Section 5.2", bic, basic)
	}
	_ = bicZS
}

// TestFig20Shape: skipped DESC execution overhead stays small on the
// multithreaded system.
func TestFig20Shape(t *testing.T) {
	tabs := runByID(t, "fig20")
	tab := tabs[0]
	r := findRow(t, tab, "Zero Skipped DESC")
	v := cell(t, tab, r, 1)
	if v < 0.9 || v > 1.06 {
		t.Errorf("zero-skipped DESC time %v outside [0.9,1.06] (paper: <2%% overhead)", v)
	}
}

// TestFig21Shape: DESC lengthens hits, and widening the bus shortens them
// for both schemes.
func TestFig21Shape(t *testing.T) {
	tabs := runByID(t, "fig21")
	tab := tabs[0]
	avg := findRow(t, tab, "Average")
	b64, b128 := cell(t, tab, avg, 1), cell(t, tab, avg, 2)
	d64, d128 := cell(t, tab, avg, 3), cell(t, tab, avg, 4)
	if !(b128 < b64 && d128 < d64) {
		t.Errorf("wider buses should shorten hits: %v/%v vs %v/%v", b64, b128, d64, d128)
	}
	if !(d64 > b64 && d128 > b128) {
		t.Error("DESC should lengthen hits at equal width")
	}
}

// TestFig27Shape: DESC improves L2 energy at every capacity.
func TestFig27Shape(t *testing.T) {
	tabs := runByID(t, "fig27")
	tab := tabs[0]
	for i := 0; i < tab.NumRows(); i++ {
		bin := cell(t, tab, i, 1)
		d := cell(t, tab, i, 2)
		if d >= bin {
			t.Errorf("capacity %s: DESC %v not below binary %v", tab.Row(i)[0], d, bin)
		}
	}
}

// TestFig29Shape: DESC keeps its energy advantage under SECDED.
func TestFig29Shape(t *testing.T) {
	tabs := runByID(t, "fig29")
	tab := tabs[0]
	geo := findRow(t, tab, "Geomean")
	d128 := cell(t, tab, geo, 4)
	if d128 >= 0.85 {
		t.Errorf("128-128 DESC with ECC at %v; should clearly beat the binary baseline", d128)
	}
}

// TestRunCacheReuse: a second identical RunOne on the same Runner hits
// the memo, and a fresh Runner recomputes to the same result.
func TestRunCacheReuse(t *testing.T) {
	ctx := context.Background()
	prof := workload.Parallel()[0]
	r := mustRunner(tiny())
	a, err := r.RunOne(ctx, BinaryBase(), prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunOne(ctx, BinaryBase(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Breakdown != b.Breakdown {
		t.Error("memoized run differs")
	}
	c, err := mustRunner(tiny()).RunOne(ctx, BinaryBase(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != c.Cycles || a.Breakdown != c.Breakdown {
		t.Error("fresh Runner diverges from cached result")
	}
}

// TestByIDs: valid ids resolve in registry order; unknown ids all appear
// in one error.
func TestByIDs(t *testing.T) {
	got, err := ByIDs([]string{"fig16", "fig01"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "fig01" || got[1].ID != "fig16" {
		t.Errorf("ByIDs order: got %v", []string{got[0].ID, got[1].ID})
	}
	_, err = ByIDs([]string{"fig16", "fig99", "bogus"})
	if err == nil {
		t.Fatal("unknown ids did not error")
	}
	for _, id := range []string{"fig99", "bogus"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name bad id %s", err, id)
		}
	}
}

// TestRegisterDuplicatePanics: experiment ids are unique by construction.
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register did not panic")
		}
	}()
	register(Experiment{ID: "fig01", Title: "dup", Run: runFig01})
}

// TestQuickBenchmarkSubsets: Quick mode restricts lists but keeps at least
// two benchmarks.
func TestQuickBenchmarkSubsets(t *testing.T) {
	q := Options{Quick: true}.WithDefaults()
	if n := len(q.benchmarks()); n < 2 || n >= 16 {
		t.Errorf("quick benchmark list has %d entries", n)
	}
	full := Options{}.WithDefaults()
	if len(full.benchmarks()) != 16 {
		t.Errorf("full benchmark list has %d entries, want 16", len(full.benchmarks()))
	}
	if len(full.sweepBenchmarks()) >= len(full.benchmarks()) {
		t.Error("sweep subset should be smaller than the full list")
	}
}

// TestGeomeanErrorNamesSpecAndBenchmark: a finished run with zero L2
// energy fails fig16's geomean, and the error names that run's spec and
// benchmark, not an input index.
func TestGeomeanErrorNamesSpecAndBenchmark(t *testing.T) {
	r := mustRunner(tiny())
	spec := designSpec("desc-zero")
	c := &call{done: make(chan struct{}), res: RunResult{Bench: "Radix"}}
	close(c.done)
	r.calls[r.key(spec, "Radix")] = c
	e, _ := ByID("fig16")
	_, err := r.Run(context.Background(), e)
	if err == nil {
		t.Fatal("fig16 rendered a geomean over a zero-energy run")
	}
	for _, want := range []string{spec.String(), "Radix"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
