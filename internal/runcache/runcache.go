// Package runcache is the content-addressed on-disk result cache under
// the experiment pipeline (DESIGN.md §16).
//
// A Store maps hex digest keys — derived by the caller from a canonical
// rendering of everything that determines a result (internal/exp hashes
// the canonicalized SystemSpec, benchmark, seed, instruction budget, and
// code-version fingerprint) — to opaque payload bytes wrapped in a
// self-describing, versioned envelope with an integrity checksum:
//
//	desc-runcache 1 sha256:<hex> <payload-length>\n
//	<payload bytes>
//
// The contract is "never fatal, never stale": a missing, truncated,
// checksum-corrupt, or wrong-version entry is reported as a miss (and
// counted), so the caller recomputes; it is never an error and never
// served as data. Writes are atomic — payloads land in a temp file in
// the destination directory and are renamed into place — so concurrent
// writers (shards sharing a directory, parallel workers in one process)
// can never expose a torn entry to a reader. Entry bytes are a pure
// function of (key, payload): two processes that compute the same result
// write byte-identical files, which is what makes shard merges and
// byte-level cache comparisons meaningful.
//
// A run set (GetSet/PutSet) is one file holding the payloads of an
// ordered list of keys, so a caller that needs a whole plan back opens
// one file instead of one per key. Sets live under sets/, named by the
// SHA-256 of their key list, in the same envelope with magic
// "desc-runset"; the body lists every record's key beside its payload:
//
//	uvarint count
//	count × (uvarint keyLen, key, uvarint payloadLen, payload)
//
// Sets are a read-side copy: loose entries stay the source of truth, and
// Keys, ImportDir and Stats.Entries never see a set.
//
// Hit/miss/write/corrupt counters surface through internal/metrics under
// the "runcache/" prefix, so CLIs and the descserve /metrics endpoint
// report cache effectiveness for free.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"desc/internal/metrics"
)

// Format constants. Version bumps when the envelope layout changes;
// old-version entries then read as misses and are recomputed.
const (
	magic   = "desc-runcache"
	version = 1
	// entryExt suffixes every cache entry file.
	entryExt = ".rc"
	// setMagic, setDir and setExt mark run-set files apart from entries.
	setMagic = "desc-runset"
	setDir   = "sets"
	setExt   = ".rcs"
	// maxHeader bounds an envelope's first line; the longest valid one
	// is under 110 bytes.
	maxHeader = 128
)

// Store is one cache directory. Safe for concurrent use by any number of
// goroutines and, thanks to atomic renames, by concurrent processes
// sharing the directory.
type Store struct {
	dir string
	mx  storeMetrics
}

// storeMetrics counts cache behavior. The instruments live in a metrics
// registry (the caller's, so they surface in run reports and /metrics,
// or a private one) — never nil, so Stats always reads real values.
type storeMetrics struct {
	hits        *metrics.Counter // Get served from a valid entry
	misses      *metrics.Counter // Get found no entry
	writes      *metrics.Counter // Put landed an entry
	writeErrors *metrics.Counter // Put failed (disk full, permissions)
	corrupt     *metrics.Counter // invalid entries or sets encountered (and skipped)
	imported    *metrics.Counter // entries copied in by ImportDir
	setHits     *metrics.Counter // GetSet served from a valid set
	setWrites   *metrics.Counter // PutSet landed a set
}

// Stats is a point-in-time reading of a Store's counters.
type Stats struct {
	Dir         string `json:"dir"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	Corrupt     uint64 `json:"corrupt"`
	Imported    uint64 `json:"imported"`
	SetHits     uint64 `json:"set_hits"`
	SetWrites   uint64 `json:"set_writes"`
	Entries     int    `json:"entries"`
}

// Open creates (if needed) and opens the cache directory dir. The
// store's counters register in reg under "runcache/"; a nil reg gets a
// private registry so Stats still works un-observed.
func Open(dir string, reg *metrics.Registry) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: creating cache directory: %w", err)
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Store{
		dir: dir,
		mx: storeMetrics{
			hits:        reg.Counter("runcache/hits"),
			misses:      reg.Counter("runcache/misses"),
			writes:      reg.Counter("runcache/writes"),
			writeErrors: reg.Counter("runcache/write_errors"),
			corrupt:     reg.Counter("runcache/corrupt"),
			imported:    reg.Counter("runcache/imported"),
			setHits:     reg.Counter("runcache/set_hits"),
			setWrites:   reg.Counter("runcache/set_writes"),
		},
	}, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether key is safe to use as a path component: pure
// lowercase hex, long enough to fan out into a prefix subdirectory.
// Digest keys from crypto hashes always qualify; anything else (path
// separators, "..", uppercase) is rejected so a hostile key can never
// escape the cache directory.
func validKey(key string) bool {
	return len(key) >= 4 && hexLower(key)
}

// hexLower reports whether s is nonempty lowercase hex.
func hexLower(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path places key under a two-character fan-out subdirectory, bounding
// per-directory entry counts on million-point sweeps.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+entryExt)
}

// appendHeader appends the envelope's first line for payload under
// magic to b.
func appendHeader(b []byte, magic string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b = append(b, magic...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, version, 10)
	b = append(b, " sha256:"...)
	b = hex.AppendEncode(b, sum[:])
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(payload)), 10)
	return append(b, '\n')
}

// encode wraps payload in the versioned envelope. The output is a pure
// function of (magic, payload), byte for byte.
func encode(magic string, payload []byte) []byte {
	out := appendHeader(make([]byte, 0, maxHeader+len(payload)), magic, payload)
	return append(out, payload...)
}

// decode validates an envelope and returns its payload. ok is false for
// any deviation — wrong magic, unknown version, truncation, length or
// checksum mismatch — and for any header encode would not have written
// (a leading zero, uppercase hex), so every accepted file is exactly
// encode(magic, payload).
func decode(magic string, data []byte) (payload []byte, ok bool) {
	// The header is short; cap the scan so a corrupt first line cannot
	// make us search megabytes for a newline.
	nl := bytes.IndexByte(data[:min(len(data), maxHeader)], '\n')
	if nl < 0 {
		return nil, false
	}
	payload = data[nl+1:]
	var want [maxHeader]byte
	if !bytes.Equal(data[:nl+1], appendHeader(want[:0], magic, payload)) {
		return nil, false
	}
	return payload, true
}

// Get returns the payload stored under key, or ok=false on a miss. Every
// failure mode — absent file, unreadable file, invalid envelope — is a
// miss; invalid envelopes additionally count as corrupt. Get never
// returns an error: the cache is an accelerator, and a broken entry
// must cost a recompute, not the sweep.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	if !validKey(key) {
		s.mx.misses.Inc()
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.mx.misses.Inc()
		return nil, false
	}
	payload, ok = decode(magic, data)
	if !ok {
		s.mx.corrupt.Inc()
		s.mx.misses.Inc()
		return nil, false
	}
	s.mx.hits.Inc()
	return payload, true
}

// Put stores payload under key atomically: the envelope is written to a
// temp file in the destination directory and renamed into place, so a
// concurrent Get (or a reader in another process) sees either the old
// complete entry or the new complete entry, never a torn one. Errors are
// counted and returned; callers treating the cache as best-effort may
// ignore them.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		s.mx.writeErrors.Inc()
		return fmt.Errorf("runcache: invalid cache key %q", key)
	}
	if err := writeAtomic(s.path(key), encode(magic, payload)); err != nil {
		s.mx.writeErrors.Inc()
		return err
	}
	s.mx.writes.Inc()
	return nil
}

// writeAtomic publishes data at dst: it is written to a temp file in
// dst's directory and renamed into place.
func writeAtomic(dst string, data []byte) error {
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runcache: creating cache subdirectory: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(dst)+".tmp*")
	if err != nil {
		return fmt.Errorf("runcache: creating temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: writing cache file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: closing cache file: %w", err)
	}
	// CreateTemp's 0600 would make a shared cache dir unreadable to
	// sibling shard processes running as other users; match MkdirAll.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: chmod cache file: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: publishing cache file: %w", err)
	}
	return nil
}

// NoteCorrupt records that the caller found key's payload semantically
// invalid (the envelope verified, but the decoded content did not). The
// entry stays on disk — the next Put for the key overwrites it.
func (s *Store) NoteCorrupt(key string) { s.mx.corrupt.Inc() }

// setPath names the run set of keys: the SHA-256 of the keys in order,
// each ended by a newline. ok is false for an empty list or an invalid
// key.
func (s *Store) setPath(keys []string) (path string, ok bool) {
	if len(keys) == 0 {
		return "", false
	}
	list := make([]byte, 0, len(keys)*(len(keys[0])+1))
	for _, k := range keys {
		if !validKey(k) {
			return "", false
		}
		list = append(append(list, k...), '\n')
	}
	sum := sha256.Sum256(list)
	var name [2 * sha256.Size]byte
	hex.Encode(name[:], sum[:])
	return filepath.Join(s.dir, setDir, string(name[:])+setExt), true
}

// GetSet serves the run set stored for keys: if the file lists exactly
// keys, in order, it passes each record's payload to accept, in key
// order, and reports whether accept took them all. The payloads alias a
// buffer GetSet does not reuse. A set is served only whole, so the
// caller can vet every record before any counts: a served set counts one
// set hit and one hit per key. No file is neither a hit nor a miss — the
// caller falls back to Get — and an invalid or rejected set counts
// corrupt once.
func (s *Store) GetSet(keys []string, accept func(i int, payload []byte) bool) bool {
	path, ok := s.setPath(keys)
	if !ok {
		return false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	payloads, ok := decodeSet(data, keys)
	for i := 0; ok && i < len(payloads); i++ {
		ok = accept(i, payloads[i])
	}
	if !ok {
		s.mx.corrupt.Inc()
		return false
	}
	s.mx.setHits.Inc()
	s.mx.hits.Add(uint64(len(keys)))
	return true
}

// PutSet stores payloads as the run set of keys, atomically, like Put.
// The file is a pure function of (keys, payloads). Errors are counted
// and returned; callers may ignore them.
func (s *Store) PutSet(keys []string, payloads [][]byte) error {
	path, ok := s.setPath(keys)
	if !ok || len(payloads) != len(keys) {
		s.mx.writeErrors.Inc()
		return fmt.Errorf("runcache: invalid run set of %d keys and %d payloads", len(keys), len(payloads))
	}
	n := binary.MaxVarintLen64
	for i := range keys {
		n += 2*binary.MaxVarintLen64 + len(keys[i]) + len(payloads[i])
	}
	body := binary.AppendUvarint(make([]byte, 0, n), uint64(len(keys)))
	for i, k := range keys {
		body = binary.AppendUvarint(body, uint64(len(k)))
		body = append(body, k...)
		body = binary.AppendUvarint(body, uint64(len(payloads[i])))
		body = append(body, payloads[i]...)
	}
	if err := writeAtomic(path, encode(setMagic, body)); err != nil {
		s.mx.writeErrors.Inc()
		return err
	}
	s.mx.setWrites.Inc()
	return nil
}

// decodeSet validates a run-set file against the keys it was looked up
// by and returns its payloads, which alias data. ok is false for an
// invalid envelope, a record count or key other than keys, a
// non-minimal uvarint, a length past the end, or trailing bytes — so
// every accepted file is exactly what PutSet writes for keys.
func decodeSet(data []byte, keys []string) (payloads [][]byte, ok bool) {
	body, ok := decode(setMagic, data)
	if !ok {
		return nil, false
	}
	// next consumes one minimal uvarint-prefixed field of body.
	next := func() ([]byte, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 || n != uvarintLen(v) || v > uint64(len(body)-n) {
			return nil, false
		}
		field := body[n : n+int(v)]
		body = body[n+int(v):]
		return field, true
	}
	count, n := binary.Uvarint(body)
	if n <= 0 || n != uvarintLen(count) || count != uint64(len(keys)) {
		return nil, false
	}
	body = body[n:]
	payloads = make([][]byte, len(keys))
	for i, k := range keys {
		key, ok := next()
		if !ok || string(key) != k {
			return nil, false
		}
		if payloads[i], ok = next(); !ok {
			return nil, false
		}
	}
	return payloads, len(body) == 0
}

// uvarintLen is the length of v's minimal uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Keys lists every entry key in the store, sorted. Invalid file names
// are skipped. Intended for merges, stats, and tests — O(entries).
func (s *Store) Keys() ([]string, error) {
	var keys []string
	subs, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("runcache: listing cache directory: %w", err)
	}
	for _, sub := range subs {
		if !sub.IsDir() || len(sub.Name()) != 2 || !hexLower(sub.Name()) {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			return nil, fmt.Errorf("runcache: listing %s: %w", sub.Name(), err)
		}
		for _, e := range ents {
			name, found := strings.CutSuffix(e.Name(), entryExt)
			if !found || !validKey(name) || !strings.HasPrefix(name, sub.Name()) {
				continue
			}
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// ImportDir merges every valid entry from another cache directory (a
// shard's result dir) into the store, in sorted key order. Invalid
// entries are counted corrupt and skipped; valid ones are re-encoded
// through Put, which — because entry bytes are a pure function of the
// payload — reproduces the source file byte for byte. Returns how many
// entries were imported and how many were skipped as invalid.
func (s *Store) ImportDir(src string) (imported, skipped int, err error) {
	other, err := Open(src, nil)
	if err != nil {
		return 0, 0, err
	}
	keys, err := other.Keys()
	if err != nil {
		return 0, 0, err
	}
	for _, key := range keys {
		payload, ok := other.Get(key)
		if !ok {
			s.mx.corrupt.Inc()
			skipped++
			continue
		}
		if err := s.Put(key, payload); err != nil {
			return imported, skipped, err
		}
		imported++
	}
	s.mx.imported.Add(uint64(imported))
	return imported, skipped, nil
}

// Stats reads the store's counters and entry count.
func (s *Store) Stats() Stats {
	n := 0
	if keys, err := s.Keys(); err == nil {
		n = len(keys)
	}
	return Stats{
		Dir:         s.dir,
		Hits:        s.mx.hits.Value(),
		Misses:      s.mx.misses.Value(),
		Writes:      s.mx.writes.Value(),
		WriteErrors: s.mx.writeErrors.Value(),
		Corrupt:     s.mx.corrupt.Value(),
		Imported:    s.mx.imported.Value(),
		SetHits:     s.mx.setHits.Value(),
		SetWrites:   s.mx.setWrites.Value(),
		Entries:     n,
	}
}

// String renders the stats line the CLIs print and CI greps:
//
//	cache-stats: hits=12 misses=0 writes=0 corrupt=0 entries=12
func (st Stats) String() string {
	return fmt.Sprintf("cache-stats: hits=%d misses=%d writes=%d corrupt=%d entries=%d",
		st.Hits, st.Misses, st.Writes, st.Corrupt, st.Entries)
}
