package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"desc/internal/workload"
)

// FuzzTraceReader: the reader never panics on any input, and every record
// it accepts re-encodes through a Writer into exactly the bytes the reader
// consumed, a trace that reads back as the same header and records.
func FuzzTraceReader(f *testing.F) {
	prof, _ := workload.ByName("Radix")
	var valid bytes.Buffer
	if _, err := Capture(workload.NewGenerator(prof, 1), 1, 4, 16, &valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, c := range badRecords {
		f.Add(append(twoContextHeader(f), c.record...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []Record
		var end error
		for end == nil {
			var rec Record
			if rec, end = r.Read(); end == nil {
				recs = append(recs, rec)
			}
		}
		var again bytes.Buffer
		w, err := NewWriter(&again, r.Header())
		if err != nil {
			t.Fatalf("accepted header %+v does not re-encode: %v", r.Header(), err)
		}
		for i, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("accepted record %d %+v does not re-encode: %v", i, rec, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// A clean end consumed the whole input; a rejected record, only
		// the records before it.
		if errors.Is(end, io.EOF) && !bytes.Equal(again.Bytes(), data) ||
			!bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("accepted input re-encodes as %x, read %x (ended by %v)", again.Bytes(), data, end)
		}
		back, err := NewReader(&again)
		if err != nil {
			t.Fatalf("re-encoded header does not read back: %v", err)
		}
		if back.Header() != r.Header() {
			t.Fatalf("header re-reads as %+v, was %+v", back.Header(), r.Header())
		}
		for i, want := range recs {
			if got, err := back.Read(); err != nil || got != want {
				t.Fatalf("record %d re-reads as %+v (%v), was %+v", i, got, err, want)
			}
		}
		if _, err := back.Read(); !errors.Is(err, io.EOF) {
			t.Fatalf("re-encoded trace has more than %d records: %v", len(recs), err)
		}
	})
}
