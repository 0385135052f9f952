package runcache

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// setKeys returns n distinct valid keys.
func setKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = key(string(rune('a' + i)))
	}
	return keys
}

// setPayloads returns one distinct payload per key.
func setPayloads(keys []string) [][]byte {
	payloads := make([][]byte, len(keys))
	for i, k := range keys {
		payloads[i] = []byte("payload of " + k[:8])
	}
	return payloads
}

// setFile returns the path of keys' run set in s.
func setFile(t *testing.T, s *Store, keys []string) string {
	t.Helper()
	path, ok := s.setPath(keys)
	if !ok {
		t.Fatalf("no set path for %d keys", len(keys))
	}
	return path
}

// getSet reads keys' run set from s, accepting every record.
func getSet(s *Store, keys []string) ([][]byte, bool) {
	payloads := make([][]byte, len(keys))
	ok := s.GetSet(keys, func(i int, payload []byte) bool {
		payloads[i] = payload
		return true
	})
	return payloads, ok
}

// setBody renders a run-set body the way PutSet does, with the record
// count given separately so a test can misstate it.
func setBody(count uint64, keys []string, payloads [][]byte) []byte {
	body := binary.AppendUvarint(nil, count)
	for i, k := range keys {
		body = binary.AppendUvarint(body, uint64(len(k)))
		body = append(body, k...)
		body = binary.AppendUvarint(body, uint64(len(payloads[i])))
		body = append(body, payloads[i]...)
	}
	return body
}

func TestRunSetRoundTrip(t *testing.T) {
	keys := setKeys(3)
	payloads := setPayloads(keys)
	s := mustOpen(t, t.TempDir())
	if err := s.PutSet(keys, payloads); err != nil {
		t.Fatal(err)
	}
	got, ok := getSet(s, keys)
	if !ok {
		t.Fatal("GetSet missed a just-written set")
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("record %d: got %q, want %q", i, got[i], payloads[i])
		}
	}
	st := s.Stats()
	if st.SetHits != 1 || st.SetWrites != 1 || st.Hits != 3 || st.Misses != 0 || st.Corrupt != 0 || st.Writes != 0 {
		t.Fatalf("stats %+v, want 1 set hit / 1 set write / 3 hits / no misses, corrupt or entry writes", st)
	}
	// The set file is a pure function of (keys, payloads).
	other := mustOpen(t, t.TempDir())
	if err := other.PutSet(keys, payloads); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(setFile(t, s, keys))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(setFile(t, other, keys))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two stores wrote different bytes for the same run set")
	}
	if want := encode(setMagic, setBody(3, keys, payloads)); !bytes.Equal(a, want) {
		t.Fatalf("set file does not match its documented layout\ngot:  %q\nwant: %q", a, want)
	}
}

// TestRunSetInvalidIsMiss plants invalid set files where a lookup finds
// them. Each must read as a miss counted corrupt exactly once, never
// served and never counted a hit or a run miss.
func TestRunSetInvalidIsMiss(t *testing.T) {
	keys := setKeys(3)
	payloads := setPayloads(keys)
	body := setBody(3, keys, payloads)
	valid := encode(setMagic, body)
	reordered := []string{keys[1], keys[0], keys[2]}
	// An uppercase checksum verifies the same bytes, but PutSet never
	// writes one.
	sumAt := bytes.Index(valid, []byte("sha256:")) + len("sha256:")
	upper := bytes.Clone(valid)
	copy(upper[sumAt:], bytes.ToUpper(upper[sumAt:sumAt+64]))
	if bytes.Equal(upper, valid) {
		t.Fatal("test bug: checksum has no hex letters")
	}
	cases := []struct {
		name string
		file []byte
	}{
		{"truncated", valid[:len(valid)/2]},
		{"checksum-corrupt", func() []byte {
			out := bytes.Clone(valid)
			out[len(out)-1] ^= 0x01
			return out
		}()},
		{"wrong-magic", encode(magic, body)},
		{"reordered-keys", encode(setMagic, setBody(3, reordered, [][]byte{payloads[1], payloads[0], payloads[2]}))},
		{"missing-key", encode(setMagic, setBody(2, keys[:2], payloads[:2]))},
		{"miscounted", encode(setMagic, setBody(2, keys, payloads))},
		{"trailing-bytes", encode(setMagic, append(bytes.Clone(body), 0))},
		{"non-minimal-count", encode(setMagic, append([]byte{0x83, 0x00}, body[1:]...))},
		{"non-minimal-length", encode(setMagic, append([]byte{body[0], 0xc0, 0x00}, body[2:]...))},
		{"length-past-end", encode(setMagic, body[:len(body)-1])},
		{"uppercase-checksum", upper},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			path := setFile(t, s, keys)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := getSet(s, keys); ok {
				t.Fatal("GetSet served an invalid set")
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Hits != 0 || st.SetHits != 0 || st.Misses != 0 {
				t.Fatalf("stats %+v, want exactly 1 corrupt and no hits or misses", st)
			}
			// A rewrite repairs it.
			if err := s.PutSet(keys, payloads); err != nil {
				t.Fatal(err)
			}
			if _, ok := getSet(s, keys); !ok {
				t.Fatal("PutSet did not repair the set")
			}
		})
	}
}

// TestRunSetRejectedRecordIsMiss: a set whose records the caller's
// accept check refuses is never served and counts corrupt once, however
// many records were read before the refusal.
func TestRunSetRejectedRecordIsMiss(t *testing.T) {
	keys := setKeys(3)
	s := mustOpen(t, t.TempDir())
	if err := s.PutSet(keys, setPayloads(keys)); err != nil {
		t.Fatal(err)
	}
	seen := 0
	if s.GetSet(keys, func(i int, _ []byte) bool { seen++; return i != 1 }) {
		t.Fatal("GetSet served a set whose record was rejected")
	}
	if seen != 2 {
		t.Errorf("accept saw %d records, want 2 (stop at the first refusal)", seen)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Hits != 0 || st.SetHits != 0 || st.Misses != 0 {
		t.Fatalf("stats %+v, want exactly 1 corrupt and no hits or misses", st)
	}
}

// TestRunSetAbsentCountsNothing: a plan without a set falls back to the
// per-entry lookups, which count its hits and misses; the set lookup
// itself must not count either.
func TestRunSetAbsentCountsNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if _, ok := getSet(s, setKeys(2)); ok {
		t.Fatal("GetSet hit on an empty store")
	}
	for _, keys := range [][]string{nil, {"../../etc"}} {
		if _, ok := getSet(s, keys); ok {
			t.Fatalf("GetSet hit for keys %q", keys)
		}
		if err := s.PutSet(keys, make([][]byte, len(keys))); err == nil {
			t.Errorf("PutSet accepted keys %q", keys)
		}
	}
	if err := s.PutSet(setKeys(2), setPayloads(setKeys(1))); err == nil {
		t.Error("PutSet accepted fewer payloads than keys")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 || st.Corrupt != 0 || st.SetHits != 0 || st.SetWrites != 0 {
		t.Fatalf("stats %+v, want nothing counted but write errors", st)
	}
}

// TestRunSetsInvisibleToEntries: loose entries stay the source of truth.
// Keys, Stats.Entries and ImportDir see entries only.
func TestRunSetsInvisibleToEntries(t *testing.T) {
	keys := setKeys(2)
	src := mustOpen(t, t.TempDir())
	if err := src.Put(keys[0], []byte("entry")); err != nil {
		t.Fatal(err)
	}
	if err := src.PutSet(keys, setPayloads(keys)); err != nil {
		t.Fatal(err)
	}
	listed, err := src.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0] != keys[0] || src.Stats().Entries != 1 {
		t.Fatalf("Keys = %v, Entries = %d; want only the loose entry", listed, src.Stats().Entries)
	}
	dstDir := t.TempDir()
	dst := mustOpen(t, dstDir)
	if imported, skipped, err := dst.ImportDir(src.Dir()); err != nil || imported != 1 || skipped != 0 {
		t.Fatalf("ImportDir = %d imported, %d skipped, %v; want the one entry", imported, skipped, err)
	}
	if _, err := os.Stat(filepath.Join(dstDir, setDir)); !os.IsNotExist(err) {
		t.Fatalf("ImportDir copied run sets (stat: %v)", err)
	}
}

// FuzzGetSet feeds arbitrary set files to GetSet. It must never panic,
// and any file it accepts must be exactly what PutSet writes for the
// payloads it returned. With wrap set the input is a body and gets a
// valid envelope, so the fuzzer reaches the record parser past the
// checksum.
func FuzzGetSet(f *testing.F) {
	keys := setKeys(3)
	payloads := setPayloads(keys)
	body := setBody(3, keys, payloads)
	f.Add(encode(setMagic, body), false, uint8(3))
	f.Add(body, true, uint8(3))
	f.Add(body, true, uint8(2))
	f.Add(body[:len(body)-1], true, uint8(3))
	f.Add(append([]byte{0x83, 0x00}, body[1:]...), true, uint8(3))
	f.Add(encode(magic, body), false, uint8(3))
	f.Add([]byte{0}, true, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, wrap bool, nkeys uint8) {
		if wrap {
			data = encode(setMagic, data)
		}
		keys := setKeys(int(nkeys%4) + 1)
		s := mustOpen(t, t.TempDir())
		path := setFile(t, s, keys)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := getSet(s, keys)
		if !ok {
			return
		}
		if err := s.PutSet(keys, got); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted set re-encodes differently\nfile:  %q\nagain: %q", data, again)
		}
	})
}
