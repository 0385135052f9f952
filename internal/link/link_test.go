package link

import (
	"math"
	"strings"
	"testing"
)

func TestFlipCountArithmetic(t *testing.T) {
	a := FlipCount{Data: 10, Control: 3, Sync: 2}
	if a.Total() != 15 {
		t.Errorf("Total = %d", a.Total())
	}
	b := FlipCount{Data: 1, Control: 1, Sync: 1}
	a.Add(b)
	if a != (FlipCount{Data: 11, Control: 4, Sync: 3}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{Cycles: 5, Flips: FlipCount{Data: 2}}
	c.Add(Cost{Cycles: 3, Flips: FlipCount{Data: 1, Sync: 4}})
	if c.Cycles != 8 || c.Flips.Data != 3 || c.Flips.Sync != 4 {
		t.Errorf("Cost.Add = %+v", c)
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Scheme: "x", BlockBits: 512, DataWires: 64}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Spec{
		{BlockBits: 0, DataWires: 64},
		{BlockBits: 12, DataWires: 64}, // not a byte multiple
		{BlockBits: 512, DataWires: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
}

func TestRegistry(t *testing.T) {
	if _, ok := Lookup("test-link-registry"); !ok {
		Register(Descriptor{
			Name:    "test-link-registry",
			Factory: func(s Spec) (Link, error) { return nil, nil },
			Traits:  Traits{CodecCycles: 3, History: HistoryLastValue, DesignWires: 32},
		})
	}
	found := false
	for _, n := range Schemes() {
		if n == "test-link-registry" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered scheme not listed")
	}
	d, ok := Lookup("test-link-registry")
	if !ok {
		t.Fatal("Lookup missed a registered scheme")
	}
	if d.Label != "test-link-registry" {
		t.Errorf("empty Label did not default to the name: %q", d.Label)
	}
	if d.Traits.CodecCycles != 3 || d.Traits.History != HistoryLastValue {
		t.Errorf("Lookup traits = %+v", d.Traits)
	}
	listed := false
	for _, desc := range Descriptors() {
		if desc.Name == "test-link-registry" {
			listed = true
		}
	}
	if !listed {
		t.Error("Descriptors omitted a registered scheme")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(Descriptor{Name: "test-link-registry", Factory: func(s Spec) (Link, error) { return nil, nil }})
}

func TestRegisterRejectsIncomplete(t *testing.T) {
	for _, d := range []Descriptor{
		{Name: "", Factory: func(s Spec) (Link, error) { return nil, nil }},
		{Name: "test-link-nofactory"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", d)
				}
			}()
			Register(d)
		}()
	}
}

func TestNewRejectsUnknownAndInvalid(t *testing.T) {
	if _, err := New(Spec{Scheme: "definitely-not-registered", BlockBits: 512, DataWires: 64}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := New(Spec{Scheme: "test-link-registry", BlockBits: 0, DataWires: 0}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestNewSuggestsCloseMatches: a misspelled scheme name should name the
// likely intended scheme(s), not just dump the registry.
func TestNewSuggestsCloseMatches(t *testing.T) {
	if _, ok := Lookup("desc-zero-test-twin"); !ok {
		Register(Descriptor{
			Name:    "desc-zero-test-twin",
			Factory: func(s Spec) (Link, error) { return nil, nil },
		})
	}
	_, err := New(Spec{Scheme: "desc-zero-test-twiX", BlockBits: 512, DataWires: 64})
	if err == nil {
		t.Fatal("misspelled scheme accepted")
	}
	if !strings.Contains(err.Error(), "did you mean") ||
		!strings.Contains(err.Error(), "desc-zero-test-twin") {
		t.Errorf("error lacks a close-match suggestion: %v", err)
	}
	// A name nowhere near any registered scheme gets no suggestion.
	_, err = New(Spec{Scheme: "qqqqqqqqqqqqqqqq", BlockBits: 512, DataWires: 64})
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("far-off name produced a suggestion: %v", err)
	}
}

func TestEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"desc-zero", "desc-zero", 0},
		{"desc-zer", "desc-zero", 1},
		{"desc-zreo", "desc-zero", 2},
		{"binary", "serial", 6},
		{"bic", "bic-zs", 3},
	} {
		if got := editDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestHistoryClass(t *testing.T) {
	for _, tc := range []struct {
		h    HistoryClass
		name string
		leak float64
	}{
		{HistoryNone, "none", 0},
		{HistoryLastValue, "last-value", 1},
		{HistoryAdaptive, "adaptive", 8},
		{HistoryClass(42), "HistoryClass(42)", 0},
	} {
		if got := tc.h.String(); got != tc.name {
			t.Errorf("%v.String() = %q, want %q", int(tc.h), got, tc.name)
		}
		if got := tc.h.LeakFactor(); got != tc.leak {
			t.Errorf("%s.LeakFactor() = %g, want %g", tc.name, got, tc.leak)
		}
	}
}

func TestTraitsDesignSpec(t *testing.T) {
	tr := Traits{DesignWires: 64, DesignSegmentBits: 8}
	spec := tr.DesignSpec("bic", 512)
	want := Spec{Scheme: "bic", BlockBits: 512, DataWires: 64, SegmentBits: 8}
	if spec != want {
		t.Errorf("DesignSpec = %+v, want %+v", spec, want)
	}
}

// TestCostAccumulatorNoOverflow: Cost doubles as a whole-run accumulator,
// so Cycles must be 64-bit. Summing transfer costs near MaxInt32 has to
// keep exact totals well past the 32-bit range — the regression this pins
// is Cycles silently wrapping when it was a plain int on a 32-bit build.
func TestCostAccumulatorNoOverflow(t *testing.T) {
	const per = math.MaxInt32 - 1
	var total Cost
	for i := 0; i < 8; i++ {
		total.Add(Cost{
			Cycles: per,
			Flips:  FlipCount{Data: per, Control: per, Sync: per},
		})
	}
	want := int64(8) * per
	if total.Cycles != want {
		t.Errorf("Cycles = %d, want %d", total.Cycles, want)
	}
	if total.Cycles <= math.MaxInt32 {
		t.Errorf("accumulated Cycles %d did not exceed MaxInt32; overflow regression not exercised", total.Cycles)
	}
	if u := uint64(8) * per; total.Flips.Data != u || total.Flips.Control != u || total.Flips.Sync != u {
		t.Errorf("Flips = %+v, want all %d", total.Flips, u)
	}
}

// TestWriteRoster: the -list-schemes table has its header and one row per
// registered descriptor, with the traits in their columns.
func TestWriteRoster(t *testing.T) {
	if _, ok := Lookup("test-link-roster"); !ok {
		Register(Descriptor{
			Name:    "test-link-roster",
			Label:   "Roster",
			Factory: func(s Spec) (Link, error) { return nil, nil },
			Traits: Traits{
				CodecCycles: 2, History: HistoryAdaptive, DESCInterface: true,
				UsesChunkBits: true, UsesSegmentBits: true,
				DesignWires: 128, DesignChunkBits: 4, DesignSegmentBits: 8,
			},
		})
	}
	var b strings.Builder
	if err := WriteRoster(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if got := strings.Fields(lines[0]); strings.Join(got, " ") != "NAME LABEL CODEC CYCLES HISTORY DESC I/F AXES DESIGN POINT" {
		t.Errorf("header = %q", lines[0])
	}
	descs := Descriptors()
	if len(lines) != 1+len(descs) {
		t.Fatalf("%d lines for %d descriptors:\n%s", len(lines), len(descs), b.String())
	}
	for i, d := range descs {
		if f := strings.Fields(lines[1+i]); f[0] != d.Name {
			t.Errorf("row %d names %q, want %q", i, f[0], d.Name)
		}
		if d.Name == "test-link-roster" {
			if got := strings.Join(strings.Fields(lines[1+i]), " "); got != "test-link-roster Roster 2 adaptive true chunk,segment 128w 4c 8s" {
				t.Errorf("roster row = %q", got)
			}
		}
	}
}
