package workload

import "testing"

// refGenBlock is the frozen chunk-at-a-time genBlock that the word-first
// kernel must match byte for byte: every chunk branches on its word's
// structure draw, its zero-chain draw and its value draw.
func (g *Generator) refGenBlock(addr uint64, buf *[64]byte) {
	const chunksPerBlock = 512 / chunkBits
	const chunksPerWord = 64 / chunkBits

	qz := zeroRunThresh
	p0Lo, p0Hi, psCond := g.p0Lo, g.p0Hi, g.psCond

	prevZero := false
	for c := 0; c < chunksPerBlock; c++ {
		// Word structure: decided once per word from its own draw —
		// repeat the previous word, complement it, or draw fresh.
		if c%chunksPerWord == 0 && c > 0 {
			wh := mix(g.seed ^ mix(addr+uint64(c)*0x9E6C63D0876A9A63))
			if d := uint16(wh); d < wordComplThresh {
				if d < wordRepeatThresh {
					copy(buf[c/2:c/2+8], buf[c/2-8:c/2])
				} else {
					for i := 0; i < 8; i++ {
						buf[c/2+i] = ^buf[c/2-8+i]
					}
				}
				c += chunksPerWord - 1
				prevZero = buf[(c)/2]>>(4*uint(c%2))&0xF == 0
				continue
			}
		}
		h := mix(g.seed ^ mix(addr+uint64(c)*0x632BE59BD9B4E019))
		zdraw := uint16(h)
		vdraw := uint16(h >> 16)
		var v byte
		zThresh := p0Lo
		if c%16 >= 12 {
			zThresh = p0Hi
		}
		if prevZero {
			zThresh = qz
		}
		switch {
		case zdraw < zThresh:
			v = 0
		case vdraw < psCond:
			v = g.patterns[c]
		default:
			v = refLowNibble(vdraw)
		}
		prevZero = v == 0
		if c%2 == 0 {
			buf[c/2] = v
		} else {
			buf[c/2] |= v << 4
		}
	}
}

// refLowNibble is the min of two uniform draws over 1..15, one from each
// byte of draw.
func refLowNibble(draw uint16) byte {
	a := byte(draw&0xFF) % 15
	b := byte(draw>>8) % 15
	if b < a {
		a = b
	}
	return a + 1
}

// fuzzProfiles is every profile, indexed by the fuzzer's first argument.
var fuzzProfiles = append(Parallel(), SPEC()...)

// FuzzGenBlockVsReference checks genBlock against refGenBlock for any
// profile, seed and address: the block at addr and the seven after it,
// so one calibration covers blocks of every word structure.
func FuzzGenBlockVsReference(f *testing.F) {
	f.Add(uint8(0), int64(1), uint64(0))
	f.Add(uint8(2), int64(7), uint64(1)<<40)
	f.Add(uint8(11), int64(40503), uint64(1)<<50+4096)
	f.Add(uint8(17), int64(-3), uint64(0xFFFF_FFFF_FFFF_FFC0))
	f.Add(uint8(23), int64(61027), uint64(0x1234_5678_9ABC))
	f.Fuzz(func(t *testing.T, pi uint8, seed int64, addr uint64) {
		g := NewGenerator(fuzzProfiles[int(pi)%len(fuzzProfiles)], seed)
		var got, want [64]byte
		for i := uint64(0); i < 8; i++ {
			a := (addr &^ 63) + i*64
			g.genBlock(a, &got)
			g.refGenBlock(a, &want)
			if got != want {
				t.Fatalf("%s seed %d addr %#x:\ngenBlock    %x\nrefGenBlock %x", g.prof.Name, seed, a, got, want)
			}
		}
	})
}
