// Package ecc implements the error protection machinery of Section 3.2.3:
// single-error-correction, double-error-detection (SECDED) Hamming codes —
// including the paper's (72,64) and (137,128) configurations — and the
// interleaved data layout of Figure 9 that lets DESC tolerate wire errors
// that corrupt a whole chunk.
//
// A SECDED code over k data bits uses r Hamming parity bits (the smallest r
// with 2^r >= k+r+1) plus one overall parity bit, for a codeword of
// n = k+r+1 bits. k=64 gives the classic (72,64) code; k=128 gives
// (137,128), matching Section 3.2.3.
package ecc

import (
	"fmt"

	"desc/internal/bitutil"
)

// Status classifies the outcome of a decode.
type Status int

const (
	// OK: the codeword was error free.
	OK Status = iota
	// Corrected: a single-bit error was corrected.
	Corrected
	// Detected: a double-bit error was detected; the data is not
	// trustworthy.
	Detected
)

// String names the status.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result reports what decoding found.
type Result struct {
	// Status classifies the outcome.
	Status Status
	// CorrectedBit is the codeword bit position repaired when Status is
	// Corrected, else -1.
	CorrectedBit int
}

// Code is a SECDED Hamming code over k data bits.
type Code struct {
	k, r, n int
	dataPos []int // codeword position (1-based Hamming index) of data bit i
}

// NewSECDED builds the SECDED code over k data bits. k must be positive.
func NewSECDED(k int) (*Code, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ecc: %d data bits", k)
	}
	r := 0
	for (1 << uint(r)) < k+r+1 {
		r++
	}
	c := &Code{k: k, r: r, n: k + r + 1}
	// Hamming positions run 1..k+r; powers of two hold parity. Data bits
	// fill the remaining positions in ascending order. The overall
	// parity occupies our codeword bit index 0, and Hamming position p
	// maps to codeword index p.
	c.dataPos = make([]int, k)
	i := 0
	for p := 1; p <= k+r && i < k; p++ {
		if p&(p-1) != 0 { // not a power of two
			c.dataPos[i] = p
			i++
		}
	}
	if i != k {
		return nil, fmt.Errorf("ecc: internal layout error for k=%d", k)
	}
	return c, nil
}

// K returns the number of data bits.
func (c *Code) K() int { return c.k }

// N returns the codeword length in bits, k + r + 1.
func (c *Code) N() int { return c.n }

// ParityBits returns the total parity overhead, r + 1.
func (c *Code) ParityBits() int { return c.r + 1 }

// Encode produces the codeword for k bits of data. The data slice holds at
// least k bits (little-endian bit order); the codeword is returned as a bit
// slice of ceil(n/8) bytes with bit 0 = overall parity and bit p = Hamming
// position p.
func (c *Code) Encode(data []byte) []byte {
	if len(data)*8 < c.k {
		panic(fmt.Sprintf("ecc: encode of %d bits with %d-bit code", len(data)*8, c.k))
	}
	cw := make([]byte, (c.n+7)/8)
	// Place data bits.
	for i := 0; i < c.k; i++ {
		if bitutil.Bit(data, i) {
			bitutil.SetBit(cw, c.dataPos[i], true)
		}
	}
	// Hamming parity bits: parity j (position 2^j) covers positions with
	// bit j set.
	for j := 0; j < c.r; j++ {
		mask := 1 << uint(j)
		par := false
		for p := 1; p <= c.k+c.r; p++ {
			if p&mask != 0 && p&(p-1) != 0 && bitutil.Bit(cw, p) {
				par = !par
			}
		}
		bitutil.SetBit(cw, mask, par)
	}
	// Overall parity over positions 1..k+r.
	par := false
	for p := 1; p <= c.k+c.r; p++ {
		if bitutil.Bit(cw, p) {
			par = !par
		}
	}
	bitutil.SetBit(cw, 0, par)
	return cw
}

// Decode checks and, if possible, repairs the codeword in place, returning
// the recovered data bits and the decode result.
func (c *Code) Decode(cw []byte) ([]byte, Result) {
	if len(cw)*8 < c.n {
		panic(fmt.Sprintf("ecc: decode of %d bits with %d-bit codeword", len(cw)*8, c.n))
	}
	// Syndrome: XOR of the Hamming positions of all set bits, compared
	// bitwise against the stored parity bits. Equivalent formulation:
	// recompute each parity including the stored parity bit; a failing
	// check contributes 2^j.
	syndrome := 0
	for j := 0; j < c.r; j++ {
		mask := 1 << uint(j)
		par := false
		for p := 1; p <= c.k+c.r; p++ {
			if p&mask != 0 && bitutil.Bit(cw, p) {
				par = !par
			}
		}
		if par {
			syndrome |= mask
		}
	}
	overall := false
	for p := 0; p <= c.k+c.r; p++ {
		if bitutil.Bit(cw, p) {
			overall = !overall
		}
	}

	res := Result{Status: OK, CorrectedBit: -1}
	switch {
	case syndrome == 0 && !overall:
		// No error.
	case syndrome == 0 && overall:
		// The overall parity bit itself flipped.
		bitutil.SetBit(cw, 0, !bitutil.Bit(cw, 0))
		res = Result{Status: Corrected, CorrectedBit: 0}
	case syndrome != 0 && overall:
		// Single error at the syndrome position.
		if syndrome > c.k+c.r {
			// Syndrome outside the codeword: multi-bit damage.
			res = Result{Status: Detected, CorrectedBit: -1}
			break
		}
		bitutil.SetBit(cw, syndrome, !bitutil.Bit(cw, syndrome))
		res = Result{Status: Corrected, CorrectedBit: syndrome}
	default: // syndrome != 0 && !overall
		// Even number of errors: detected, uncorrectable.
		res = Result{Status: Detected, CorrectedBit: -1}
	}

	data := make([]byte, (c.k+7)/8)
	for i := 0; i < c.k; i++ {
		if bitutil.Bit(cw, c.dataPos[i]) {
			bitutil.SetBit(data, i, true)
		}
	}
	return data, res
}
