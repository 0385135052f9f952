package workload

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestBlockCacheMatchesGenBlock fills blocks from many goroutines over
// several (profile, seed) keys and overlapping addresses, so hits, misses
// and concurrent misses on one block all occur (run it under -race): every
// block FillBlockData returns must equal a direct genBlock.
func TestBlockCacheMatchesGenBlock(t *testing.T) {
	type key struct {
		prof Profile
		seed int64
	}
	var keys []key
	for _, p := range append(Parallel()[:2], SPEC()[0]) {
		for _, seed := range []int64{3, 61027} {
			keys = append(keys, key{p, seed})
		}
	}
	const (
		workers = 8
		addrs   = 1500
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var got, want [64]byte
			for i := 0; i < addrs; i++ {
				// Workers walk the same addresses at different strides,
				// so they meet on blocks at different times.
				j := (i*(2*w+1) + w*97) % addrs
				k := keys[(i+w)%len(keys)]
				g := NewGenerator(k.prof, k.seed)
				addr := uint64(1)<<40 + uint64(j)*64 + uint64(i%64)
				g.FillBlockData(addr, got[:])
				g.genBlock(addr&^63, &want)
				if got != want {
					errs <- k.prof.Name + ": cached block differs from genBlock"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBlockCacheBounded: the ring holds at most blockCacheCap blocks and
// evicts the oldest first; a memo key evicted and re-admitted gets a new
// id, so blocks cached under the old one are never served for it; and a
// key with a NaN field still gets correct blocks under an id of its own.
func TestBlockCacheBounded(t *testing.T) {
	c := new(blockCache)
	indexed := func() int {
		n := 0
		for _, ref := range c.index {
			if ref != 0 {
				n++
			}
		}
		return n
	}
	// Pairs of keys share an address under two ids, so a lookup that
	// matched on the address alone would return the other id's block.
	key := func(i int) blockKey { return blockKey{id: uint64(1 + i%2), addr: uint64(i/2) * 64} }
	var data, got [64]byte
	const extra = blockCacheCap / 2
	for i := 0; i < blockCacheCap+extra; i++ {
		data[0], data[1] = byte(i), byte(i>>8)
		c.put(key(i), &data)
		if c.n > blockCacheCap || len(c.chunks)*blockChunk > blockCacheCap {
			t.Fatalf("after %d puts: %d filled, %d chunks; cap %d", i+1, c.n, len(c.chunks), blockCacheCap)
		}
	}
	if c.n != blockCacheCap || indexed() != blockCacheCap {
		t.Fatalf("full ring: %d filled, %d indexed, want %d", c.n, indexed(), blockCacheCap)
	}
	for i := 0; i < blockCacheCap+extra; i++ {
		hit := c.get(key(i), got[:])
		if hit != (i >= extra) {
			t.Fatalf("block %d: hit %v, want %v (the oldest %d are evicted)", i, hit, i >= extra, extra)
		}
		if hit && (got[0] != byte(i) || got[1] != byte(i>>8)) {
			t.Fatalf("block %d: got the data of another block", i)
		}
	}

	// Two keys with one address and one home position: the second probes
	// past the first and must still find its own block.
	ka := blockKey{id: 1 << 40, addr: 1 << 45}
	kb := blockKey{id: ka.id + 1, addr: ka.addr}
	for kb.home() != ka.home() {
		kb.id++
	}
	data[0] = 'a'
	c.put(ka, &data)
	data[0] = 'b'
	c.put(kb, &data)
	for _, tc := range []struct {
		k    blockKey
		want byte
	}{{ka, 'a'}, {kb, 'b'}} {
		if !c.get(tc.k, got[:]) || got[0] != tc.want {
			t.Fatalf("colliding key %+v: got block %q, want %q", tc.k, got[0], tc.want)
		}
	}

	// A profile no other test uses, so the fake calibrations below can
	// never be served to a real generator.
	prof := Parallel()[0]
	prof.Name = "blockcache-eviction-test"
	fake := func() float64 { return 1 }
	_, first := spillCorrs.get(spillKey{prof, 0}, fake)
	seen := map[uint64]bool{first: true}
	for i := 1; i <= spillMemoCap; i++ {
		_, id := spillCorrs.get(spillKey{prof, int64(i)}, fake)
		if seen[id] {
			t.Fatalf("key %d reuses id %d", i, id)
		}
		seen[id] = true
	}
	if _, again := spillCorrs.get(spillKey{prof, 0}, fake); seen[again] {
		t.Fatalf("re-admitted key got id %d, issued before", again)
	}

	// A real generator re-admitted under a new id regenerates its blocks
	// rather than finding another key's.
	readmit := SPEC()[1]
	readmit.Name = "blockcache-readmit-test"
	old := NewGenerator(readmit, 5)
	var want [64]byte
	for i := uint64(0); i < 64; i++ {
		old.FillBlockData(i*64, got[:])
	}
	for i := 0; i < spillMemoCap; i++ {
		spillCorrs.get(spillKey{prof, int64(1000 + i)}, fake)
	}
	readmitted := NewGenerator(readmit, 5)
	other := NewGenerator(readmit, 6)
	if readmitted.id == old.id || other.id == old.id {
		t.Fatalf("ids: old %d, re-admitted %d, other seed %d; want the old id retired", old.id, readmitted.id, other.id)
	}
	for _, g := range []*Generator{readmitted, other} {
		for i := uint64(0); i < 64; i++ {
			g.FillBlockData(i*64, got[:])
			g.genBlock(i*64, &want)
			if got != want {
				t.Fatalf("generator with id %d, block %d: served a stale block", g.id, i)
			}
		}
	}

	// A NaN field (one that leaves block contents alone) makes the key
	// unequal to itself: each generator gets its own id, and its blocks are
	// still correct, from generation and from the cache.
	nan := SPEC()[2]
	nan.WriteFrac = math.NaN()
	a, b := NewGenerator(nan, 9), NewGenerator(nan, 9)
	if a.id == b.id {
		t.Fatalf("two NaN-profile generators share id %d", a.id)
	}
	for pass := 0; pass < 2; pass++ {
		for _, g := range []*Generator{a, b} {
			for i := uint64(0); i < 32; i++ {
				g.FillBlockData(i*64, got[:])
				g.genBlock(i*64, &want)
				if got != want {
					t.Fatalf("NaN profile, pass %d, block %d: differs from genBlock", pass, i)
				}
			}
		}
	}
}

// unmix inverts mix: mix(unmix(h)) == h.
func unmix(h uint64) uint64 {
	h ^= h>>31 ^ h>>62
	h *= mulInverse(0x94D049BB133111EB)
	h ^= h>>27 ^ h>>54
	h *= mulInverse(0xBF58476D1CE4E5B9)
	h ^= h>>30 ^ h>>60
	return h - 0x9E3779B97F4A7C15
}

// mulInverse returns the inverse of odd a modulo 2^64 (Newton's iteration
// doubles the correct low bits each step).
func mulInverse(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// keyWithHash returns a key at addr whose index hash is h.
func keyWithHash(addr, h uint64) blockKey {
	return blockKey{id: (unmix(h) ^ addr) * mulInverse(0x9E3779B97F4A7C15), addr: addr}
}

// TestBlockCacheMatchesModel runs random get/put sequences against a map
// and FIFO model of the cache. Three fifths of the puts are fresh keys,
// which wrap the ring several times; the rest of the operations use a
// small pool of crafted keys that share home positions (and homes next to
// each other and next to the index's wrap point), some with equal tags
// too, so probes run past tag mismatches and past equal tags on other
// keys, and evictions shift long probe runs back.
func TestBlockCacheMatchesModel(t *testing.T) {
	const (
		homes   = 6
		tags    = 3
		perPair = 4 // keys per (home, tag): equal home and equal tag
		ops     = 10 * blockCacheCap
	)
	homeAt := [homes]uint64{100, 100, 101, 102, 1<<blockIndexBits - 1, 0}
	var crafted []blockKey
	for hi, home := range homeAt {
		for tag := uint64(0); tag < tags; tag++ {
			for i := uint64(0); i < perPair; i++ {
				mid := uint64(hi)<<8 | i // distinct middle bits keep the keys distinct
				h := home<<(64-blockIndexBits) | mid<<16 | tag*0x5A5A
				k := keyWithHash(i*64, h)
				if k.hash() != h || k.home() != int(home) {
					t.Fatalf("crafted key %+v: hash or home differs from %#x", k, h)
				}
				crafted = append(crafted, k)
			}
		}
	}

	c := new(blockCache)
	model := map[blockKey][64]byte{}
	var fifo []blockKey // model insertion order, oldest first
	rng := rand.New(rand.NewSource(11))
	var data, got [64]byte
	fresh := uint64(0)
	put := func(k blockKey) {
		binary.LittleEndian.PutUint64(data[:], rng.Uint64())
		c.put(k, &data)
		if _, ok := model[k]; ok {
			return
		}
		if len(fifo) == blockCacheCap {
			delete(model, fifo[0])
			fifo = fifo[1:]
		}
		model[k] = data
		fifo = append(fifo, k)
	}
	get := func(k blockKey) {
		want, ok := model[k]
		if hit := c.get(k, got[:]); hit != ok {
			t.Fatalf("get %+v: hit %v, model %v", k, hit, ok)
		}
		if ok && got != want {
			t.Fatalf("get %+v: cached data %x, model %x", k, got[:8], want[:8])
		}
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(8); {
		case r < 3: // a fresh key: fills the ring and wraps it
			fresh++
			put(blockKey{id: 1 + fresh%3, addr: fresh * 64})
		case r < 5:
			put(crafted[rng.Intn(len(crafted))])
		case r < 7:
			get(crafted[rng.Intn(len(crafted))])
		default: // a recent, evicted or never-put fresh key
			get(blockKey{id: 1 + uint64(rng.Intn(3)), addr: uint64(rng.Int63n(int64(fresh+2))) * 64})
		}
	}
	if fresh < 3*blockCacheCap {
		t.Fatalf("%d fresh puts: the sequence did not wrap the ring three times", fresh)
	}
	n := 0
	for _, e := range c.index {
		if e != 0 {
			n++
		}
	}
	if c.n != len(model) || n != len(model) {
		t.Fatalf("cache holds %d blocks with %d indexed, model %d", c.n, n, len(model))
	}
	for _, k := range crafted {
		get(k)
	}
}
