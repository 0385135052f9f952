package core

import (
	"bytes"
	"math/rand"
	"testing"

	"desc/internal/link"
)

// FuzzChannelRoundTrip drives arbitrary payloads through the
// cycle-accurate transmitter/receiver under every skipping variant and
// requires exact decode plus agreement with the analytic codec.
func FuzzChannelRoundTrip(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(2))
	f.Add([]byte{0x53, 0xA1, 0x00, 0x10, 0x80, 0x7E, 0x01, 0xFE}, uint8(0))
	f.Add([]byte{0x12, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x07}, uint8(3))

	f.Fuzz(func(t *testing.T, payload []byte, kindSeed uint8) {
		if len(payload) < 8 {
			return
		}
		block := payload[:8]
		kind := SkipKind(int(kindSeed) % 4)

		ch, err := NewChannel(64, 4, 16, kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		codec, err := NewCodec(64, 4, 16, kind)
		if err != nil {
			t.Fatal(err)
		}
		gotCost, decoded := ch.Send(block)
		if !bytes.Equal(decoded, block) {
			t.Fatalf("%v: decoded %x != sent %x", kind, decoded, block)
		}
		wantCost := codec.Send(block)
		if gotCost != wantCost {
			t.Fatalf("%v: cycle-accurate %+v != analytic %+v", kind, gotCost, wantCost)
		}
	})
}

// FuzzCountPosInverse checks the skip-count mapping stays a bijection for
// arbitrary skip values.
func FuzzCountPosInverse(f *testing.F) {
	f.Add(uint8(0), uint8(5))
	f.Add(uint8(15), uint8(3))
	f.Fuzz(func(t *testing.T, s, v uint8) {
		s &= 0xF
		v &= 0xF
		if v == s {
			return
		}
		p := CountPos(uint16(v), uint16(s))
		if p < 1 || p > 15 {
			t.Fatalf("pos(%d|%d) = %d out of range", v, s, p)
		}
		if got := ValueAt(p, uint16(s)); got != uint16(v) {
			t.Fatalf("ValueAt(%d,%d) = %d, want %d", p, s, got, v)
		}
	})
}

// sendBlocksGeometries are the geometries FuzzSendBlocksVsSend draws
// from: the design point, 2-bit chunks spread into nibble lanes, 8-bit
// chunks in byte lanes, a ragged 24-wire round, a partial final round of
// fewer words than a whole one (256-bit blocks at 128 wires), a partial
// final round over several rounds, and raw layouts whose final round
// ends inside a word (96-bit blocks).
var sendBlocksGeometries = []struct {
	blockBits, chunkBits, wires int
}{
	{512, 4, 128},
	{512, 2, 128},
	{512, 8, 64},
	{512, 4, 24},
	{256, 4, 128},
	{512, 4, 48},
	{96, 4, 16},
	{96, 8, 8},
}

// FuzzSendBlocksVsSend holds link.SendBlocks on the codec to a loop of
// Send on a twin codec and to the frozen scalar oracle, per block, over
// a fuzz-chosen kind, geometry, block count (0–64) and byte offset of
// the payload (0–7). Each block is sent to the twin as its own
// exact-length copy, and the bytes after the payload are not zero, so a
// round that reads past its block changes a cost or panics. Afterwards
// the decoded payload, LastDecoded and the cost of one more Send must
// match.
func FuzzSendBlocksVsSend(f *testing.F) {
	f.Add([]byte{0x00}, uint8(1), uint8(0), uint8(3), uint8(0))
	f.Add([]byte{0x53, 0xA1, 0x00, 0x10, 0x80, 0x7E, 0x01, 0xFE}, uint8(1), uint8(4), uint8(5), uint8(3))
	f.Add([]byte{0x12, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x07, 0xF0}, uint8(0), uint8(6), uint8(9), uint8(5))
	f.Add([]byte{0xFF, 0x00, 0x00, 0x00}, uint8(3), uint8(1), uint8(64), uint8(7))
	f.Add([]byte{0x31, 0x00, 0x00}, uint8(2), uint8(7), uint8(2), uint8(1))
	f.Add([]byte{0x00, 0x07, 0x00, 0x00}, uint8(1), uint8(6), uint8(4), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, kindSeed, geomSeed, count, offSeed uint8) {
		kind := SkipKind(int(kindSeed) % 4)
		g := sendBlocksGeometries[int(geomSeed)%len(sendBlocksGeometries)]
		nb, off, bb := int(count)%65, int(offSeed)%8, g.blockBits/8
		buf := bytes.Repeat([]byte{0xA5}, off+nb*bb+64)
		payload := buf[off : off+nb*bb]
		for i := range payload {
			if len(data) > 0 {
				payload[i] = data[i%len(data)] ^ byte(i/len(data))
			}
		}

		batch, err := NewCodec(g.blockBits, g.chunkBits, g.wires, kind)
		if err != nil {
			t.Fatal(err)
		}
		loop, _ := NewCodec(g.blockBits, g.chunkBits, g.wires, kind)
		ref, _ := newReferenceCodec(g.blockBits, g.chunkBits, g.wires, kind)
		per := make([]link.Cost, nb)
		decoded := make([]byte, len(payload))
		total := link.SendBlocks(batch, payload, per, decoded)

		var want link.Cost
		for i := 0; i < nb; i++ {
			block := append([]byte(nil), payload[i*bb:(i+1)*bb]...)
			c, r := loop.Send(block), ref.Send(block)
			if c != r {
				t.Fatalf("%v %+v block %d: Send %+v, reference %+v", kind, g, i, c, r)
			}
			if per[i] != c {
				t.Fatalf("%v %+v block %d: SendBlocks %+v, Send %+v", kind, g, i, per[i], c)
			}
			want.Add(c)
		}
		if total != want {
			t.Fatalf("%v %+v %d blocks: SendBlocks total %+v, Send loop %+v", kind, g, nb, total, want)
		}
		if !bytes.Equal(decoded, payload) {
			t.Fatalf("%v %+v %d blocks: decoded %x, want the payload %x", kind, g, nb, decoded, payload)
		}
		if !bytes.Equal(batch.LastDecoded(), loop.LastDecoded()) {
			t.Fatalf("%v %+v %d blocks: LastDecoded %x, Send loop %x", kind, g, nb, batch.LastDecoded(), loop.LastDecoded())
		}
		next := bytes.Repeat([]byte{0x3C}, bb)
		if nb > 0 {
			next = append([]byte(nil), payload[:bb]...)
		}
		if cb, cl := batch.Send(next), loop.Send(next); cb != cl {
			t.Fatalf("%v %+v: Send after %d blocks costs %+v, after a Send loop %+v", kind, g, nb, cb, cl)
		}
	})
}

// TestSendBlocksWholeRoundRuns holds SendBlocks of desc-basic and
// desc-zero, on geometries whose rounds fold as runs of equal rounds, to
// a Send loop on a twin codec and to the scalar oracle, per block: one
// to eight rounds per block and 8- to 64-byte rounds, over block counts
// whose rounds end before, at and past a multiple of the 64-round fold
// buffer, at byte offsets 0–7 with non-zero bytes after the payload. A
// geometry whose final round has a layout of its own (48 wires) checks
// Send's mix of a run and a lone final round.
func TestSendBlocksWholeRoundRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, g := range []struct{ blockBits, chunkBits, wires int }{
		{512, 4, 128}, {512, 8, 64}, {256, 4, 128}, {1024, 4, 128},
		{512, 4, 32}, {512, 8, 16}, {512, 4, 16}, {512, 4, 48},
	} {
		for _, kind := range []SkipKind{SkipNone, SkipZero} {
			for _, nb := range []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 70} {
				bb, off := g.blockBits/8, rng.Intn(8)
				buf := bytes.Repeat([]byte{0xA5}, off+nb*bb+64)
				payload := buf[off : off+nb*bb]
				for i := range payload {
					// Sparse bytes: rounds both with and without
					// zero chunks, and peaks that differ.
					payload[i] = byte(rng.Intn(256)) & byte(rng.Intn(256)) & byte(rng.Intn(256))
				}
				batch, err := NewCodec(g.blockBits, g.chunkBits, g.wires, kind)
				if err != nil {
					t.Fatal(err)
				}
				loop, _ := NewCodec(g.blockBits, g.chunkBits, g.wires, kind)
				ref, _ := newReferenceCodec(g.blockBits, g.chunkBits, g.wires, kind)
				per := make([]link.Cost, nb)
				total := batch.SendBlocks(payload, per, nil)
				var want link.Cost
				for i := 0; i < nb; i++ {
					block := append([]byte(nil), payload[i*bb:(i+1)*bb]...)
					c, r := loop.Send(block), ref.Send(block)
					if c != r {
						t.Fatalf("%v %+v block %d: Send %+v, reference %+v", kind, g, i, c, r)
					}
					if per[i] != c {
						t.Fatalf("%v %+v %d blocks, block %d: SendBlocks %+v, Send %+v", kind, g, nb, i, per[i], c)
					}
					want.Add(c)
				}
				if total != want {
					t.Fatalf("%v %+v %d blocks: SendBlocks total %+v, Send loop %+v", kind, g, nb, total, want)
				}
				if nb > 0 {
					if got := batch.SendBlocks(payload, nil, nil); got != want {
						t.Fatalf("%v %+v %d blocks: SendBlocks without per %+v, want %+v", kind, g, nb, got, want)
					}
				}
			}
		}
	}
}
