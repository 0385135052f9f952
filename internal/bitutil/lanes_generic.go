//go:build !amd64

package bitutil

// nibbleKernel is the portable fold where there is no SSE2 kernel.
func nibbleKernel(xs []uint64) (peak uint16, zeros int) { return nibbleFold(xs) }

// byteKernel is nibbleKernel for byte lanes.
func byteKernel(xs []uint64) (peak uint16, zeros int) { return byteFold(xs) }

// nibbleKernelBytes is nibbleKernel over the little-endian words of b.
func nibbleKernelBytes(b []byte) (peak uint16, zeros int) { return foldBytes(b, nibbleFold) }

// byteKernelBytes is nibbleKernelBytes for byte lanes.
func byteKernelBytes(b []byte) (peak uint16, zeros int) { return foldBytes(b, byteFold) }

// nibbleKernelRounds folds len(out) rounds of roundBytes bytes each from
// the start of b into out, one round at a time, after checking that b
// holds them.
func nibbleKernelRounds(b []byte, roundBytes int, out []RoundFold) {
	if !holdsRounds(len(b), roundBytes, len(out)) {
		panicRounds(b, roundBytes, out)
	}
	foldRounds(b, roundBytes, out, nibbleFold)
}

// byteKernelRounds is nibbleKernelRounds for byte lanes.
func byteKernelRounds(b []byte, roundBytes int, out []RoundFold) {
	if !holdsRounds(len(b), roundBytes, len(out)) {
		panicRounds(b, roundBytes, out)
	}
	foldRounds(b, roundBytes, out, byteFold)
}
