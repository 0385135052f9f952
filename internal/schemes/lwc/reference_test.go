package lwc

import (
	"testing"

	"desc/internal/link"
	"desc/internal/link/linktest"
	"desc/internal/schemes/lowweight/reference"
)

// TestMatchesReference holds the word-parallel Send to the frozen
// bit-serial reference at every segment width, on one to five segments
// (so beats that are not byte aligned and partial final beats occur)
// and at two block sizes, and at the segment sweep's wire counts.
func TestMatchesReference(t *testing.T) {
	for k := 2; k <= 64; k += 2 {
		for _, segs := range []int{1, 2, 3, 5} {
			for _, blockBits := range []int{64, 512} {
				l, err := New(blockBits, k*segs, k)
				if err != nil {
					t.Fatal(err)
				}
				reference.Compare(t, l, true, blockBits, k, linktest.Traffic(blockBits))
			}
		}
	}
	// The segment sweep's (Figure 15) shapes: many segments per beat on
	// 64 and 128 wires, several whole-word beats per block.
	for _, k := range []int{4, 8, 16, 32, 64} {
		for _, wires := range []int{64, 128} {
			l, err := New(512, wires, k)
			if err != nil {
				t.Fatal(err)
			}
			reference.Compare(t, l, true, 512, k, linktest.Traffic(512))
		}
	}
}

// FuzzLWCVsReference holds Send to the reference on arbitrary block
// pairs over every segment width and block size.
func FuzzLWCVsReference(f *testing.F) {
	f.Add(uint8(3), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(31), uint8(1), []byte{0xFF, 0x00, 0xFF, 0x00, 0xAA, 0x55, 0xAA, 0x55, 0x01},
		[]byte{0x00, 0xFF, 0x00, 0xFF, 0x55, 0xAA, 0x55, 0xAA})
	f.Add(uint8(4), uint8(5), []byte{0x10, 0, 0, 0, 0, 0, 0xC0}, []byte{0xFF})
	f.Fuzz(func(t *testing.T, width, segs uint8, first, second []byte) {
		reference.Fuzz(t, func(blockBits, wires, k int) (link.Link, error) {
			return New(blockBits, wires, k)
		}, true, width, segs, first, second)
	})
}
