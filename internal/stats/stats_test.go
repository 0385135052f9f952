package stats

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanGeoMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2) {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := GeoMean([]float64{1, 4}); !almost(got, 2) {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 0, 8}); !almost(got, 4) {
		t.Errorf("GeoMean skipping zero = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}

func TestSum(t *testing.T) {
	if !almost(Sum([]float64{3, 1, 4, 1, 5}), 14) {
		t.Error("Sum wrong")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(16)
	for i := 0; i < 31; i++ {
		h.Add(0)
	}
	for v := 1; v < 16; v++ {
		for i := 0; i < 4; i++ {
			h.Add(v)
		}
	}
	h.Add(99) // clamps to bin 15
	h.Add(-5) // clamps to bin 0
	if h.Total() != 31+60+2 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(15) != 5 {
		t.Errorf("clamped high bin = %d, want 5", h.Count(15))
	}
	if h.Count(0) != 32 {
		t.Errorf("clamped low bin = %d, want 32", h.Count(0))
	}
	if f := h.Frac(0); !almost(f, 32.0/93.0) {
		t.Errorf("Frac(0) = %v", f)
	}
	h2 := NewHistogram(16)
	for i := 0; i < 7; i++ {
		h2.Add(3)
	}
	h.Merge(h2)
	if h.Count(3) != 11 || h.Total() != 100 {
		t.Errorf("after merge: Count(3)=%d Total=%d", h.Count(3), h.Total())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []int{2, 2, 4, 4} {
		h.Add(v)
	}
	if !almost(h.Mean(), 3) {
		t.Errorf("Mean = %v, want 3", h.Mean())
	}
}

func TestTableMarkdownAndCSV(t *testing.T) {
	// A ragged table: "Benchmark" is wider than its cells, the E and Time
	// cells are wider than their headers, and the last row is short.
	tab := NewTable("Figure X", "Benchmark", "E", "Time")
	tab.AddRow("Art", "0.55", "1.02")
	tab.AddRowValues("Geomean", 0.5524, 1.0199e-5)
	tab.AddRow("CG")
	wantMD := "### Figure X\n\n" +
		"| Benchmark | E      | Time     |\n" +
		"| --------- | ------ | -------- |\n" +
		"| Art       | 0.55   | 1.02     |\n" +
		"| Geomean   | 0.5524 | 1.02e-05 |\n" +
		"| CG        |        |          |\n" +
		"\n"
	if md := tab.Markdown(); md != wantMD {
		t.Errorf("markdown:\n%q\nwant\n%q", md, wantMD)
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	wantCSV := "Benchmark,E,Time\nArt,0.55,1.02\nGeomean,0.5524,1.02e-05\nCG,,\n"
	if csv := sb.String(); csv != wantCSV {
		t.Errorf("csv:\n%q\nwant\n%q", csv, wantCSV)
	}

	untitled := NewTable("", "a")
	untitled.AddRow("x")
	if md, want := untitled.Markdown(), "| a |\n| - |\n| x |\n\n"; md != want {
		t.Errorf("untitled markdown %q, want %q", md, want)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow(`va"l`, "x,y")
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"va""l","x,y"`) {
		t.Errorf("csv escaping wrong: %q", sb.String())
	}
}

// TestCellMatchesSprintf holds Cell to fmt's %.4g, the format every
// committed results table was written with: the specials, subnormals and
// extremes, then seeded random bit patterns and random magnitudes over
// 1e±20.
func TestCellMatchesSprintf(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5524, 9.9995, 99995, 1e-5, 123456789,
	}
	rng := rand.New(rand.NewSource(2901))
	for i := 0; i < 100_000; i++ {
		vals = append(vals,
			math.Float64frombits(rng.Uint64()),
			(rng.Float64()*2-1)*math.Pow(10, rng.Float64()*40-20))
	}
	for _, v := range vals {
		if got, want := Cell(v), fmt.Sprintf("%.4g", v); got != want {
			t.Errorf("Cell(%b) = %q, want %q", v, got, want)
		}
	}
}
