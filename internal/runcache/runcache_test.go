package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"desc/internal/metrics"
)

// key returns a valid digest-shaped key derived from s.
func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k := key("a")
	payload := []byte(`{"result": 42}`)
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned %q, want %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Writes != 1 || st.Corrupt != 0 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 0 misses / 1 write / 0 corrupt / 1 entry", st)
	}
}

func TestGetAbsentIsMiss(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if _, ok := s.Get(key("nothing")); ok {
		t.Fatal("Get hit on an empty store")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want a plain miss", st)
	}
}

// TestEncodingDeterministic pins that entry bytes are a pure function of
// the payload: the property that makes shard merges byte-identical.
func TestEncodingDeterministic(t *testing.T) {
	a := encode(magic, []byte("payload"))
	b := encode(magic, []byte("payload"))
	if !bytes.Equal(a, b) {
		t.Fatal("encode is not deterministic")
	}
	sa := mustOpen(t, t.TempDir())
	sb := mustOpen(t, t.TempDir())
	k := key("x")
	if err := sa.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := sb.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fa, err := os.ReadFile(sa.path(k))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(sb.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa, fb) {
		t.Fatal("two stores wrote different bytes for the same (key, payload)")
	}
}

// corruptions maps a failure mode to a mutation of a valid entry file.
// Every mode must read back as a silent miss counted corrupt.
var corruptions = map[string]func([]byte) []byte{
	"truncated-header": func(b []byte) []byte { return b[:3] },
	"truncated-payload": func(b []byte) []byte {
		return b[:len(b)-1]
	},
	"empty": func([]byte) []byte { return nil },
	"flipped-payload-byte": func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[len(out)-1] ^= 0x01
		return out
	},
	"wrong-magic": func(b []byte) []byte {
		return append([]byte("not-a-cache 1 x 0\n"), b...)
	},
	"wrong-version": func(b []byte) []byte {
		return bytes.Replace(b, []byte(magic+" 1 "), []byte(magic+" 99 "), 1)
	},
	"garbage": func([]byte) []byte { return []byte("garbage with no newline whatsoever") },
	"extra-trailing-bytes": func(b []byte) []byte {
		return append(append([]byte(nil), b...), "tail"...)
	},
}

func TestCorruptEntriesAreSilentMisses(t *testing.T) {
	names := make([]string, 0, len(corruptions))
	for name := range corruptions { //desclint:allow determinism subtest order does not affect results
		names = append(names, name)
	}
	for _, name := range names {
		mutate := corruptions[name]
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			k := key(name)
			payload := []byte(`{"v": 1}`)
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			valid, err := os.ReadFile(s.path(k))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path(k), mutate(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k); ok {
				t.Fatal("Get served a corrupt entry")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats %+v, want exactly 1 corrupt", st)
			}
			// Recompute path: an overwrite repairs the entry.
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(k)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatal("overwrite did not repair the corrupt entry")
			}
		})
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for _, k := range []string{"", "ab", "../../etc/passwd", "ABCDEF012345", "zzzz42", "ab/cd", "abc.d"} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put accepted invalid key %q", k)
		}
		if _, ok := s.Get(k); ok {
			t.Errorf("Get hit on invalid key %q", k)
		}
	}
}

// TestConcurrentWritersNoTornReads hammers one store from many writers
// and readers (same keys, different payload generations) under -race:
// every successful Get must observe some complete generation, never a
// torn or mixed entry.
func TestConcurrentWritersNoTornReads(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const keys = 4
	const writers = 8
	const rounds = 25

	payload := func(k, gen int) []byte {
		return []byte(fmt.Sprintf(`{"key": %d, "gen": %d, "pad": %q}`,
			k, gen, strings.Repeat("x", 1024)))
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := key(fmt.Sprint(r % keys))
				if err := s.Put(k, payload(r%keys, w)); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
				if got, ok := s.Get(k); ok {
					// Whatever generation we read, it must be one of
					// the complete payloads for this key.
					valid := false
					for g := 0; g < writers; g++ {
						if bytes.Equal(got, payload(r%keys, g)) {
							valid = true
							break
						}
					}
					if !valid {
						t.Errorf("torn read on key %d: %q", r%keys, got)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("stats %+v: concurrent writers produced corrupt entries", st)
	}
	// No temp files may survive the stampede.
	keysOnly, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keysOnly) != keys {
		t.Fatalf("store holds %d entries, want %d", len(keysOnly), keys)
	}
	err = filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !strings.HasSuffix(path, entryExt) {
			t.Errorf("stray file %s left behind", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKeysSorted(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	want := []string{key("c"), key("a"), key("b")}
	for _, k := range want {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Keys returned %d entries, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Keys not sorted: %v", got)
		}
	}
}

// TestImportDirMergesByteIdentical proves the merge invariant: importing
// a shard's entries reproduces its files byte for byte, and invalid
// entries are skipped, not fatal.
func TestImportDirMergesByteIdentical(t *testing.T) {
	shard1 := mustOpen(t, t.TempDir())
	shard2 := mustOpen(t, t.TempDir())
	k1, k2, k3 := key("1"), key("2"), key("3")
	if err := shard1.Put(k1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := shard2.Put(k2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := shard2.Put(k3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	// Sabotage one entry in shard2: the merge must skip it and say so.
	if err := os.WriteFile(shard2.path(k3), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	merged := mustOpen(t, t.TempDir())
	for _, src := range []*Store{shard1, shard2} {
		if _, _, err := merged.ImportDir(src.Dir()); err != nil {
			t.Fatal(err)
		}
	}
	st := merged.Stats()
	if st.Imported != 2 || st.Corrupt != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 2 imported / 1 corrupt / 2 entries", st)
	}
	for src, k := range map[*Store]string{shard1: k1, shard2: k2} { //desclint:allow determinism byte-compare assertions are order-independent
		want, err := os.ReadFile(src.path(k))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(merged.path(k))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("merged entry %s differs from its source bytes", k)
		}
	}
}

// TestCountersRegisterInCallerRegistry pins the /metrics contract: a
// store opened with a registry surfaces its counters there.
func TestCountersRegisterInCallerRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	k := key("m")
	if err := s.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("miss after Put")
	}
	if got := reg.Counter("runcache/hits").Value(); got != 1 {
		t.Fatalf("runcache/hits = %d in caller registry, want 1", got)
	}
	if got := reg.Counter("runcache/writes").Value(); got != 1 {
		t.Fatalf("runcache/writes = %d in caller registry, want 1", got)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", nil); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
}
