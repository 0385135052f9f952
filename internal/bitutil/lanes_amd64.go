package bitutil

// nibbleKernel returns the largest nibble of xs and how many of its
// nibbles are zero (SSE2, lanes_amd64.s).
//
//go:noescape
func nibbleKernel(xs []uint64) (peak uint16, zeros int)

// byteKernel is nibbleKernel for byte lanes.
//
//go:noescape
func byteKernel(xs []uint64) (peak uint16, zeros int)

// nibbleKernelBytes is nibbleKernel over the little-endian words of b,
// read in place: len(b)/8 words, any alignment.
//
//go:noescape
func nibbleKernelBytes(b []byte) (peak uint16, zeros int)

// byteKernelBytes is nibbleKernelBytes for byte lanes.
//
//go:noescape
func byteKernelBytes(b []byte) (peak uint16, zeros int)

// nibbleKernelRounds folds len(out) rounds of roundBytes bytes each from
// the start of b into out, in one frame, after checking that b holds
// them (holdsRounds).
//
//go:noescape
func nibbleKernelRounds(b []byte, roundBytes int, out []RoundFold)

// byteKernelRounds is nibbleKernelRounds for byte lanes.
//
//go:noescape
func byteKernelRounds(b []byte, roundBytes int, out []RoundFold)
