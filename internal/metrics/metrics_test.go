package metrics

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one counter, gauge, and histogram
// from many goroutines (run under -race in CI): totals must be exact.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-resolve by name each time: get-or-create must hand every
			// goroutine the same instrument.
			for i := 0; i < perG; i++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").Add(1)
				reg.Histogram("h", []uint64{4, 16, 64}).Observe(uint64(i % 100))
			}
		}()
	}
	wg.Wait()

	const want = goroutines * perG
	if got := reg.Counter("c").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := reg.Gauge("g").Value(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	h := reg.Histogram("h", nil)
	if h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	var wantSum uint64
	for i := 0; i < perG; i++ {
		wantSum += uint64(i % 100)
	}
	wantSum *= goroutines
	if h.Sum() != wantSum {
		t.Errorf("histogram sum = %d, want %d", h.Sum(), wantSum)
	}
}

// TestSnapshotStable: two snapshots of an idle registry are identical,
// and every section comes back sorted by name.
func TestSnapshotStable(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"z/last", "a/first", "m/middle"} {
		reg.Counter(name).Add(7)
		reg.Gauge(name).Set(-3)
		reg.Histogram(name, []uint64{1, 8}).Observe(5)
	}
	first := reg.Snapshot()
	second := reg.Snapshot()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("idle snapshots differ:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	names := func(n int) string { return first.Counters[n].Name }
	if !sort.SliceIsSorted(first.Counters, func(i, j int) bool { return names(i) < names(j) }) {
		t.Errorf("counters not sorted: %+v", first.Counters)
	}
	if len(first.Counters) != 3 || len(first.Gauges) != 3 || len(first.Histograms) != 3 {
		t.Errorf("snapshot sizes: %d/%d/%d, want 3/3/3",
			len(first.Counters), len(first.Gauges), len(first.Histograms))
	}
}

// TestNilSafety: a nil registry and nil instruments are silent no-ops —
// the mechanism that lets instrumented hot paths run unconditionally.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x", []uint64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Add(-2)
	h.Observe(3)
	tally := NewTally([]uint64{1})
	reg.AddTally("x", &tally)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments accumulated values")
	}
	if s := reg.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot non-empty: %+v", s)
	}
}

// TestHistogramBuckets pins boundary placement: v <= bound lands in that
// bucket, anything above the last bound lands in overflow. A Tally of the
// same values, added to a registry, reads the same.
func TestHistogramBuckets(t *testing.T) {
	reg, tallied := NewRegistry(), NewRegistry()
	h := reg.Histogram("h", []uint64{2, 8})
	tally := NewTally([]uint64{8, 2})
	for _, v := range []uint64{0, 2, 3, 8, 9, 1000} {
		h.Observe(v)
		tally.Observe(v)
	}
	tallied.AddTally("h", &tally)
	hv := reg.Snapshot().Histograms[0]
	want := []uint64{2, 2, 2} // {0,2}, {3,8}, {9,1000}
	if !reflect.DeepEqual(hv.Counts, want) {
		t.Errorf("bucket counts = %v, want %v (bounds %v)", hv.Counts, want, hv.Bounds)
	}
	if hv.Count != 6 || hv.Sum != 0+2+3+8+9+1000 {
		t.Errorf("count/sum = %d/%d", hv.Count, hv.Sum)
	}
	if tv := tallied.Snapshot().Histograms[0]; !reflect.DeepEqual(tv, hv) {
		t.Errorf("tally reads %+v, histogram %+v", tv, hv)
	}
	tallied.AddTally("h", &tally)
	if tv := tallied.Snapshot().Histograms[0]; tv.Count != 12 || tv.Sum != 2*hv.Sum || tv.Counts[2] != 4 {
		t.Errorf("second AddTally: %+v, want every total doubled", tv)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddTally onto a histogram with other bounds did not panic")
		}
	}()
	other := NewTally([]uint64{2, 16})
	tallied.AddTally("h", &other)
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 16)
	want := []uint64{1, 2, 4, 8, 16}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExpBuckets(1,16) = %v, want %v", got, want)
	}
	if got := ExpBuckets(0, 4); !reflect.DeepEqual(got, []uint64{1, 2, 4}) {
		t.Errorf("ExpBuckets(0,4) = %v", got)
	}
}

// TestReportRoundTrip writes a report to disk and decodes it back: the
// -metrics artifact must be valid, complete JSON with runs sorted by
// (spec, bench).
func TestReportRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cachesim/l2_hits").Add(42)
	rep := Report{
		Tool: "test", Quick: true, Seed: 7, Jobs: 4,
		Planned: 2, Completed: 1, Failed: 0, Cancelled: 1,
		WallMillis: 1234,
		Runs: []RunTiming{
			{Spec: "desc-zero 128w", Bench: "CG", Millis: 20, Status: StatusCancelled},
			{Spec: "binary 64w", Bench: "Art", Millis: 10, Status: StatusOK},
		},
		Metrics: reg.Snapshot(),
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Runs[0].Spec != "binary 64w" || back.Runs[1].Spec != "desc-zero 128w" {
		t.Errorf("runs not sorted by spec: %+v", back.Runs)
	}
	if len(back.Metrics.Counters) != 1 || back.Metrics.Counters[0].Value != 42 {
		t.Errorf("metrics snapshot lost: %+v", back.Metrics)
	}
	if back.WallMillis != 1234 || back.Cancelled != 1 {
		t.Errorf("scalar fields lost: %+v", back)
	}
}

// TestServePprof binds a free port and fetches the index page.
func TestServePprof(t *testing.T) {
	addr, err := ServePprof("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}
}
