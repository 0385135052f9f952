// Package linktest is the registry-wide conformance harness for data
// transfer schemes: Verify exercises one registered scheme against the
// link.Link and link.Decoder contracts, and VerifyAll runs it over every
// scheme in the registry. A new codec that registers a descriptor gets
// the full battery — round-trip correctness on stateful traffic,
// determinism, Reset semantics and allocations, LastDecoded aliasing,
// decoding after unread sends, block streams costed in one call —
// without writing a single test of its own.
package linktest

import (
	"bytes"
	"math/rand"
	"testing"

	"desc/internal/link"
)

// blockBits is the conformance transfer size — the paper's cache block.
const blockBits = 512

// Traffic builds the deterministic block sequence every scheme is
// verified against: the adversarial corners the skip variants
// special-case (all zero from power-on, all ones, an exact repeat,
// alternating bits, a sparse block, return to zero) followed by seeded
// random blocks. Order matters: links are stateful. Exported so other
// test layers (the descserve endpoint tests) can drive the exact
// conformance traffic through a different transport.
func Traffic(blockBits int) [][]byte {
	n := blockBits / 8
	fill := func(v byte) []byte {
		return bytes.Repeat([]byte{v}, n)
	}
	sparse := make([]byte, n)
	sparse[n/3] = 0x0D
	blocks := [][]byte{
		make([]byte, n),
		fill(0xFF),
		fill(0xFF),
		fill(0xAA),
		fill(0x11),
		sparse,
		make([]byte, n),
	}
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 24; i++ {
		b := make([]byte, n)
		rng.Read(b)
		blocks = append(blocks, b)
	}
	return blocks
}

// newAt builds the scheme at its registered design point.
func newAt(t *testing.T, name string) link.Link {
	t.Helper()
	d, ok := link.Lookup(name)
	if !ok {
		t.Fatalf("scheme %q is not registered", name)
	}
	l, err := link.New(d.Traits.DesignSpec(name, blockBits))
	if err != nil {
		t.Fatalf("%s: design-point construction failed: %v", name, err)
	}
	return l
}

// Verify checks one registered scheme against the link contracts at its
// design-point geometry.
func Verify(t *testing.T, name string) {
	t.Run("geometry", func(t *testing.T) { verifyGeometry(t, name) })
	t.Run("roundtrip", func(t *testing.T) { verifyRoundTrip(t, name) })
	t.Run("determinism", func(t *testing.T) { verifyDeterminism(t, name) })
	t.Run("reset", func(t *testing.T) { verifyReset(t, name) })
	t.Run("reset-allocs", func(t *testing.T) { verifyResetAllocs(t, name) })
	t.Run("aliasing", func(t *testing.T) { verifyAliasing(t, name) })
	t.Run("unread-sends", func(t *testing.T) { verifyUnreadSends(t, name) })
	t.Run("send-blocks", func(t *testing.T) { verifySendBlocks(t, name) })
	t.Run("degenerate", func(t *testing.T) { verifyDegenerateSpecs(t, name) })
}

// VerifyAll runs Verify over every scheme in the registry. The caller's
// test binary must have imported the scheme packages (usually via a
// blank import of desc/internal/schemes).
func VerifyAll(t *testing.T) {
	for _, name := range link.Schemes() {
		t.Run(name, func(t *testing.T) { Verify(t, name) })
	}
}

// verifyGeometry: the constructed link reports the identity and geometry
// its descriptor promised.
func verifyGeometry(t *testing.T, name string) {
	d, _ := link.Lookup(name)
	l := newAt(t, name)
	if l.Name() != name {
		t.Errorf("Name() = %q, want %q", l.Name(), name)
	}
	if l.BlockBytes() != blockBits/8 {
		t.Errorf("BlockBytes() = %d, want %d", l.BlockBytes(), blockBits/8)
	}
	if l.DataWires() != d.Traits.DesignWires {
		t.Errorf("DataWires() = %d, want design point %d", l.DataWires(), d.Traits.DesignWires)
	}
	if l.ExtraWires() < 0 {
		t.Errorf("ExtraWires() = %d, want >= 0", l.ExtraWires())
	}
}

// verifyRoundTrip: the receiver recovers every block of the stateful
// traffic sequence exactly. Every scheme must expose the receiver's view
// — a link that cannot demonstrate decode correctness is not a data
// transfer scheme.
func verifyRoundTrip(t *testing.T, name string) {
	l := newAt(t, name)
	dec, ok := l.(link.Decoder)
	if !ok {
		t.Fatalf("%s does not implement link.Decoder", name)
	}
	for i, b := range Traffic(blockBits) {
		l.Send(b)
		if !bytes.Equal(dec.LastDecoded(), b) {
			t.Fatalf("block %d: decoded %x != sent %x", i, dec.LastDecoded(), b)
		}
	}
}

// verifyDeterminism: two instances fed the same sequence report
// identical per-block costs.
func verifyDeterminism(t *testing.T, name string) {
	a, b := newAt(t, name), newAt(t, name)
	for i, blk := range Traffic(blockBits) {
		ca, cb := a.Send(blk), b.Send(blk)
		if ca != cb {
			t.Fatalf("block %d: instance costs diverge: %+v vs %+v", i, ca, cb)
		}
	}
}

// verifyReset: after arbitrary traffic, Reset returns the link to the
// power-on state — replaying the sequence costs exactly what a fresh
// instance pays, so no wire level or skip history survives.
func verifyReset(t *testing.T, name string) {
	used, fresh := newAt(t, name), newAt(t, name)
	blocks := Traffic(blockBits)
	for _, b := range blocks {
		used.Send(b)
	}
	used.Reset()
	for i, b := range blocks {
		cu, cf := used.Send(b), fresh.Send(b)
		if cu != cf {
			t.Fatalf("block %d after Reset: cost %+v, fresh instance pays %+v", i, cu, cf)
		}
	}
}

// verifyResetAllocs: Reset clears history but keeps the link's buffers,
// so after warm traffic a Reset-then-Send cycle allocates nothing. The
// descserve codec pool Resets a link on every checkout; a Reset that
// dropped the decode buffer would cost each pooled request a fresh one.
func verifyResetAllocs(t *testing.T, name string) {
	l := newAt(t, name)
	blocks := Traffic(blockBits)
	for _, b := range blocks {
		l.Send(b)
	}
	i := 0
	avg := testing.AllocsPerRun(len(blocks), func() {
		l.Reset()
		l.Send(blocks[i%len(blocks)])
		i++
	})
	if avg != 0 {
		t.Errorf("%.2f allocs per Reset+Send after warm traffic, want 0", avg)
	}
}

// verifyDegenerateSpecs: registry construction rejects nonsense
// geometries with an error instead of silently coercing them into a
// configuration nobody asked for (the default-masking bug that once let
// a negative SegmentBits become the 8-bit default). Each probe perturbs
// one field of the design-point Spec; geometry-field probes apply only
// to schemes whose Traits declare they consume the field — everyone else
// documents the field as ignored.
func verifyDegenerateSpecs(t *testing.T, name string) {
	d, _ := link.Lookup(name)
	probes := []struct {
		label  string
		mutate func(*link.Spec)
		apply  bool
	}{
		{"zero wires", func(s *link.Spec) { s.DataWires = 0 }, true},
		{"negative wires", func(s *link.Spec) { s.DataWires = -8 }, true},
		{"zero block", func(s *link.Spec) { s.BlockBits = 0 }, true},
		{"negative block", func(s *link.Spec) { s.BlockBits = -512 }, true},
		{"ragged block", func(s *link.Spec) { s.BlockBits = 12 }, true},
		{"negative chunk width", func(s *link.Spec) { s.ChunkBits = -4 }, d.Traits.UsesChunkBits},
		{"negative segment width", func(s *link.Spec) { s.SegmentBits = -8 }, d.Traits.UsesSegmentBits},
	}
	for _, p := range probes {
		if !p.apply {
			continue
		}
		spec := d.Traits.DesignSpec(name, blockBits)
		p.mutate(&spec)
		if _, err := link.New(spec); err == nil {
			t.Errorf("%s: construction accepted %+v, want an error", p.label, spec)
		}
	}
}

// verifyAliasing pins the documented LastDecoded contract: the returned
// slice aliases a reused buffer, so the next Send overwrites a retained
// slice in place. Simulation loops rely on this reuse staying
// allocation-free; a scheme that quietly started returning fresh copies
// would mask retention bugs in callers tested against it.
func verifyAliasing(t *testing.T, name string) {
	l := newAt(t, name)
	dec := l.(link.Decoder)
	blocks := Traffic(blockBits)
	l.Send(blocks[1])
	retained := dec.LastDecoded()
	if !bytes.Equal(retained, blocks[1]) {
		t.Fatalf("decoded %x != sent %x", retained, blocks[1])
	}
	l.Send(blocks[3])
	if !bytes.Equal(retained, blocks[3]) {
		t.Errorf("retained slice was not overwritten by the next Send; LastDecoded must alias a reused buffer")
	}
}

// verifyUnreadSends pins LastDecoded for callers that read rarely or
// never — the simulator never reads, /v1/decode reads every block. A
// codec may defer its receiver decode until the first read, so:
//   - after k unread Sends, LastDecoded is the k-th block, every beat of
//     it, not a mix of blocks or beats;
//   - Reset after an unread Send leaves LastDecoded empty;
//   - a link read before keeps overwriting a retained slice in place on
//     its next Send, across a Reset;
//   - an unread steady-state Send allocates nothing.
func verifyUnreadSends(t *testing.T, name string) {
	blocks := Traffic(blockBits)
	for k := 1; k <= len(blocks); k++ {
		l := newAt(t, name)
		for _, b := range blocks[:k] {
			l.Send(b)
		}
		if got := l.(link.Decoder).LastDecoded(); !bytes.Equal(got, blocks[k-1]) {
			t.Fatalf("after %d unread Sends: decoded %x != sent %x", k, got, blocks[k-1])
		}
	}

	l := newAt(t, name)
	dec := l.(link.Decoder)
	l.Send(blocks[1])
	l.Reset()
	if got := dec.LastDecoded(); len(got) != 0 {
		t.Errorf("LastDecoded after an unread Send and Reset = %x, want empty", got)
	}
	l.Send(blocks[3])
	if got := dec.LastDecoded(); !bytes.Equal(got, blocks[3]) {
		t.Fatalf("decoded %x != sent %x after Reset", got, blocks[3])
	}
	retained := dec.LastDecoded()
	l.Reset()
	l.Send(blocks[4])
	if !bytes.Equal(retained, blocks[4]) {
		t.Errorf("retained slice was not overwritten by a Send after Reset; a link read before must keep decoding into its buffer")
	}

	l = newAt(t, name)
	for _, b := range blocks {
		l.Send(b)
	}
	i := 0
	avg := testing.AllocsPerRun(len(blocks), func() {
		l.Send(blocks[i%len(blocks)])
		i++
	})
	if avg != 0 {
		t.Errorf("%.2f allocs per unread Send after warm traffic, want 0", avg)
	}
}

// verifySendBlocks holds link.SendBlocks, the link's own SendBlocks when
// it has one, to a loop of Send on a twin link fed the same traffic: the
// same total and per-block costs, the same decoded bytes, the same
// LastDecoded afterwards (written into a slice retained before the
// batch, as a Send would), and the same cost for every later Send, so a
// batch leaves the wire levels and skip history where the loop does.
// Batches of every size from 0 to 3 blocks tile the traffic, so a batch
// also starts on warm history; nil per and decoded slices, and a batch
// after a read of LastDecoded, are covered too. A warm batch allocates
// nothing.
func verifySendBlocks(t *testing.T, name string) {
	blocks := Traffic(blockBits)
	n := blockBits / 8
	var payload []byte
	for _, b := range blocks {
		payload = append(payload, b...)
	}
	batch, loop := newAt(t, name), newAt(t, name)
	loopDec := loop.(link.Decoder)
	batch.Send(blocks[2])
	loop.Send(blocks[2])
	retained := batch.(link.Decoder).LastDecoded()
	per := make([]link.Cost, len(blocks))
	decoded := make([]byte, len(payload))
	for i, size := 0, 0; i < len(blocks); i, size = i+size, (size+1)%4 {
		size = min(size, len(blocks)-i)
		var p []link.Cost
		var d []byte
		if size%2 == 1 {
			p, d = per[i:i+size], decoded[i*n:(i+size)*n]
		}
		got := link.SendBlocks(batch, payload[i*n:(i+size)*n], p, d)
		var want link.Cost
		for j := i; j < i+size; j++ {
			c := loop.Send(blocks[j])
			want.Add(c)
			if p != nil && p[j-i] != c {
				t.Fatalf("block %d: batch cost %+v, Send loop %+v", j, p[j-i], c)
			}
			if d != nil && !bytes.Equal(d[(j-i)*n:(j-i+1)*n], loopDec.LastDecoded()) {
				t.Fatalf("block %d: batch decoded %x, Send loop %x", j, d[(j-i)*n:(j-i+1)*n], loopDec.LastDecoded())
			}
		}
		if got != want {
			t.Fatalf("batch of blocks %d..%d: total %+v, Send loop %+v", i, i+size-1, got, want)
		}
		if size > 0 && !bytes.Equal(retained, blocks[i+size-1]) {
			t.Fatalf("after the batch of blocks %d..%d, a retained LastDecoded holds %x, want the final block %x",
				i, i+size-1, retained, blocks[i+size-1])
		}
		if got, want := batch.(link.Decoder).LastDecoded(), loopDec.LastDecoded(); !bytes.Equal(got, want) {
			t.Fatalf("after the batch of blocks %d..%d: LastDecoded %x, Send loop %x", i, i+size-1, got, want)
		}
	}
	for i, b := range blocks {
		if cb, cl := batch.Send(b), loop.Send(b); cb != cl {
			t.Fatalf("Send %d after the batches: cost %+v, after a Send loop %+v", i, cb, cl)
		}
	}

	fresh, twin := newAt(t, name), newAt(t, name)
	got := link.SendBlocks(fresh, payload, nil, nil)
	var want link.Cost
	for _, b := range blocks {
		want.Add(twin.Send(b))
	}
	if got != want {
		t.Fatalf("one batch of the traffic from power-on: total %+v, Send loop %+v", got, want)
	}
	if got := fresh.(link.Decoder).LastDecoded(); !bytes.Equal(got, blocks[len(blocks)-1]) {
		t.Fatalf("after an unread batch: LastDecoded %x, want the final block %x", got, blocks[len(blocks)-1])
	}
	if cf, ct := fresh.Send(blocks[0]), twin.Send(blocks[0]); cf != ct {
		t.Fatalf("Send after an unread batch: cost %+v, after a Send loop %+v", cf, ct)
	}

	avg := testing.AllocsPerRun(5, func() {
		fresh.Reset()
		link.SendBlocks(fresh, payload, per, decoded)
	})
	if avg != 0 {
		t.Errorf("%.2f allocs per warm SendBlocks, want 0", avg)
	}
}
