package trace

import (
	"bytes"
	"context"
	"encoding/binary"
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
	if err := w.Write(Record{Ctx: 2}); !errors.Is(err, ErrContext) {
		t.Errorf("out-of-range context: %v, want ErrContext", err)
	}
	if err := w.Write(Record{Access: workload.Access{Gap: -1}}); !errors.Is(err, ErrGap) {
		t.Errorf("negative gap: %v, want ErrGap", err)
	}
	if _, err := NewWriter(&buf, Header{Contexts: 0}); err == nil {
		t.Error("zero contexts accepted")
	}
}

// badRecords are single records that no Writer writes, after a header of
// two contexts, with the error Read must return for each.
var badRecords = []struct {
	name   string
	record []byte // context, gap, op, address delta
	want   error
}{
	// int(2^63) is negative: it once slipped past the range check and
	// indexed the per-context address table out of range.
	{"context 2^63", rawRecord(1<<63, 0, 0), ErrContext},
	{"context 2", rawRecord(2, 0, 0), ErrContext},
	{"op 7", rawRecord(0, 0, 7), ErrOp},
	{"op 2", rawRecord(0, 0, 2), ErrOp},
	{"gap 2^63", rawRecord(0, 1<<63, 0), ErrGap},
	// Context 80 00, gap 85 80 00, write, delta 80 00 once read as
	// {Ctx:0 Write:true Gap:5}, which a Writer writes as 00 05 01 00.
	{"overlong varints", []byte{0x80, 0x00, 0x85, 0x80, 0x00, 0x01, 0x80, 0x00}, ErrVarint},
	{"overlong delta", []byte{0x00, 0x05, 0x01, 0x80, 0x00}, ErrVarint},
	// A cut record once read as the clean end of the trace.
	{"cut after context", []byte{0x01}, io.ErrUnexpectedEOF},
	{"cut after op", []byte{0x01, 0x00, 0x01}, io.ErrUnexpectedEOF},
	{"gap overflows 64 bits", append(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64), 0x01, 0x00, 0x00), ErrVarint},
}

// rawRecord encodes one record with a zero address delta.
func rawRecord(ctx, gap uint64, op byte) []byte {
	b := binary.AppendUvarint(nil, ctx)
	b = binary.AppendUvarint(b, gap)
	return append(b, op, 0)
}

// twoContextHeader is the encoded header of an empty two-context trace.
func twoContextHeader(t testing.TB) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "Art", Contexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	overlong := append([]byte(magic), 0x83, 0x00, 'A', 'r', 't', 0x00, 0x02)
	if _, err := NewReader(bytes.NewReader(overlong)); !errors.Is(err, ErrVarint) {
		t.Errorf("overlong name length: %v, want ErrVarint", err)
	}
	for _, c := range badRecords {
		r, err := NewReader(bytes.NewReader(append(twoContextHeader(t), c.record...)))
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := r.Read(); !errors.Is(err, c.want) {
			t.Errorf("%s: Read = %+v, %v; want %v", c.name, rec, err, c.want)
		}
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
