package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"desc/internal/cpusim"
	"desc/internal/exp"
	"desc/internal/workload"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "Radix", Seed: -7, Contexts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Header()
	if h.Benchmark != "Radix" || h.Seed != -7 || h.Contexts != 4 {
		t.Errorf("header = %+v", h)
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("empty trace Read = %v, want EOF", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "Art", Contexts: 3})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Ctx: 0, Access: workload.Access{Addr: 0x1000, Gap: 5}},
		{Ctx: 1, Access: workload.Access{Addr: 0xFFFF0000, Write: true}},
		{Ctx: 0, Access: workload.Access{Addr: 0x0FC0, Gap: 1}}, // negative delta
		{Ctx: 2, Access: workload.Access{Addr: 0, Gap: 100}},
		{Ctx: 1, Access: workload.Access{Addr: 0xFFFF0040, Write: false}},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.records != uint64(len(recs)) {
		t.Errorf("records = %d", w.records)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("trailing Read = %v, want EOF", err)
	}
}

func TestWriterRejectsBadContext(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "x", Contexts: 2})
	if err := w.Write(Record{Ctx: 2}); err == nil {
		t.Error("out-of-range context accepted")
	}
	if _, err := NewWriter(&buf, Header{Contexts: 0}); err == nil {
		t.Error("zero contexts accepted")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestCaptureReplayTimingIdentical: replaying a captured trace through the
// simulator reproduces the live run's whole result — timing, hierarchy
// counts and energy — because the streams and the block contents are both
// deterministic. The replay runs exactly what desctrace -replay runs.
func TestCaptureReplayTimingIdentical(t *testing.T) {
	const seed, instr = 3, 2000
	spec := exp.SystemSpec{Scheme: "desc-zero", DataWires: 128}
	for _, bench := range []string{"Radix", "Art", "CG"} {
		prof, _ := workload.ByName(bench)
		gen := workload.NewGenerator(prof, seed)
		live, err := exp.Simulate(context.Background(), spec, gen, cpusim.Streams(gen), instr, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Capture enough references to cover the instruction budget.
		var buf bytes.Buffer
		if _, err := Capture(workload.NewGenerator(prof, seed), seed, 32, 2500, &buf); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewReplaySource(r)
		if err != nil {
			t.Fatal(err)
		}
		dataGen, err := src.Generator()
		if err != nil {
			t.Fatal(err)
		}
		replay, err := exp.Simulate(context.Background(), spec, dataGen, src, instr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if replay != live {
			t.Errorf("%s: replay differs from live run:\nreplay %+v\nlive   %+v", bench, replay, live)
		}
	}
}

// TestReplayWraps: a short recording loops rather than running dry.
func TestReplayWraps(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "Art", Contexts: 1})
	for i := 0; i < 3; i++ {
		w.Write(Record{Ctx: 0, Access: workload.Access{Addr: uint64(i) * 64}})
	}
	w.Flush()
	r, _ := NewReader(&buf)
	src, err := NewReplaySource(r)
	if err != nil {
		t.Fatal(err)
	}
	s := src.Stream(0, 1)
	for i := 0; i < 7; i++ {
		got := s.Next().Addr
		want := uint64(i%3) * 64
		if got != want {
			t.Fatalf("access %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestReplayUnknownBenchmark: replaying a trace from an unknown profile
// fails loudly when block contents are needed.
func TestReplayUnknownBenchmark(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "mystery", Contexts: 1})
	w.Write(Record{Ctx: 0})
	w.Flush()
	r, _ := NewReader(&buf)
	src, err := NewReplaySource(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Generator(); err == nil {
		t.Error("unknown benchmark resolved")
	}
}
