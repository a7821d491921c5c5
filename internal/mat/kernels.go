package mat

import "math"

// The inner loops every GEMM and propagation kernel runs through: axpy
// (dst += α·src), dot, and AddRows/AxpyRows, the add and axpy forms
// that sum a vertex's neighbor rows in one call. Each has a Go body
// (the reference, and the path on CPUs and architectures without AVX2)
// and an AVX2 body in kernels_amd64.s. The assembly uses separate
// multiplies and adds (VMULPD/VADDPD, and VMULSD/VADDSD for the row
// kernels' last len%4 elements), never a fused multiply-add, and
// performs the same operations on the same operands in the same order
// as the Go body, so every result is bit-identical whichever path
// runs. axpy's tail, dot's horizontal sum and tail, and the zero skips
// of the GEMM callers stay in Go.
//
// The one freedom left is the payload of a NaN produced from two NaN
// operands: IEEE 754 leaves open which operand's payload survives, x86
// keeps the first operand's, and the Go compiler picks the operand
// order of a commutative add or multiply per statement. Such a result
// is NaN on both paths, with either payload.

// useAVX2 routes axpy, dot, AddRows and AxpyRows through the assembly
// kernels. It is set once at package init from the CPU features and is
// false on every architecture but amd64.
var useAVX2 = cpuHasAVX2()

// axpy computes dst += alpha * src elementwise over len(dst).
func axpy(dst, src []float64, alpha float64) {
	if len(src) < len(dst) {
		panic("mat: axpy length mismatch")
	}
	i := 0
	if useAVX2 {
		i = len(dst) &^ 3
		axpyAVX2(dst[:i], src[:i], alpha)
	}
	if i < len(dst) {
		axpyGo(dst[i:], src[i:len(dst)], alpha)
	}
}

// axpyGo is the Go body of axpy. The 4-way unroll gives the compiler
// independent chains to schedule.
func axpyGo(dst, src []float64, alpha float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// dot returns the inner product of x and y[:len(x)]. Lane m of the
// four partial sums takes the indices ≡ m (mod 4) of the
// multiple-of-4 prefix; the lanes are summed in order and the tail is
// added last.
func dot(x, y []float64) float64 {
	if len(y) < len(x) {
		panic("mat: dot length mismatch")
	}
	n := len(x) &^ 3
	var s0, s1, s2, s3 float64
	if useAVX2 {
		s0, s1, s2, s3 = dotAVX2(x[:n], y[:n])
	} else {
		s0, s1, s2, s3 = dotGo(x[:n], y[:n])
	}
	s := s0 + s1 + s2 + s3
	for i := n; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// dotGo is the Go body of dot's lanes; len(x) is a multiple of 4.
func dotGo(x, y []float64) (s0, s1, s2, s3 float64) {
	y = y[:len(x)]
	for i := 0; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	return s0, s1, s2, s3
}

// AddRows adds rows of src into dst in idx order: for each u in idx,
// dst += src[u*stride : u*stride+len(dst)]. It is the neighbor sum of
// feature propagation, one call per vertex and feature chunk; pass
// src already offset to the chunk's first column.
func AddRows(dst, src []float64, idx []int32, stride int) {
	checkRows(len(dst), len(src), idx, stride, math.MaxInt)
	if useAVX2 {
		addRowsAVX2(dst, src, idx, stride)
		return
	}
	addRowsGo(dst, src, idx, stride)
}

// AxpyRows adds weighted rows of src into dst in idx order: for each
// u in idx, dst += (scale*w[u]) * src[u*stride : u*stride+len(dst)].
func AxpyRows(dst, src []float64, idx []int32, stride int, scale float64, w []float64) {
	checkRows(len(dst), len(src), idx, stride, len(w))
	if useAVX2 {
		axpyRowsAVX2(dst, src, idx, stride, scale, w)
		return
	}
	axpyRowsGo(dst, src, idx, stride, scale, w)
}

// checkRows panics unless every listed row lies inside src and below
// rows; the assembly trusts its indices.
func checkRows(width, n int, idx []int32, stride, rows int) {
	for _, u := range idx {
		if u < 0 || int(u) >= rows || int(u)*stride+width > n {
			panic("mat: row index out of range")
		}
	}
}

// addRowsGo is the Go body of AddRows.
func addRowsGo(dst, src []float64, idx []int32, stride int) {
	for _, u := range idx {
		row := src[int(u)*stride : int(u)*stride+len(dst)]
		for j, x := range row {
			dst[j] += x
		}
	}
}

// axpyRowsGo is the Go body of AxpyRows.
func axpyRowsGo(dst, src []float64, idx []int32, stride int, scale float64, w []float64) {
	for _, u := range idx {
		axpyGo(dst, src[int(u)*stride:int(u)*stride+len(dst)], scale*w[u])
	}
}
