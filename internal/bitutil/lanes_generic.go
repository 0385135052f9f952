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
