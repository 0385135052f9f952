//go:build !amd64

package bitutil

// nibbleKernel is the portable fold where there is no SSE2 kernel.
func nibbleKernel(xs []uint64) (peak uint16, zeros int) { return nibbleFold(xs) }

// byteKernel is nibbleKernel for byte lanes.
func byteKernel(xs []uint64) (peak uint16, zeros int) { return byteFold(xs) }
