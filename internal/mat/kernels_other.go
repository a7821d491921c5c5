//go:build !amd64

package mat

func cpuHasAVX2() bool { return false }

// The AVX2 kernels exist only on amd64; elsewhere useAVX2 is false and
// these bodies stand in for them, so the dispatch compiles everywhere.

func axpyAVX2(dst, src []float64, alpha float64) { axpyGo(dst, src, alpha) }

func addRowsAVX2(dst, src []float64, idx []int32, stride int) {
	addRowsGo(dst, src, idx, stride)
}

func axpyRowsAVX2(dst, src []float64, idx []int32, stride int, scale float64, w []float64) {
	axpyRowsGo(dst, src, idx, stride, scale, w)
}

func dotAVX2(x, y []float64) (s0, s1, s2, s3 float64) { return dotGo(x, y) }

// The tile kernels have no Go body: the GEMMs call them only when
// useAVX2 is set, and run their row-wise loops otherwise.

func gemmTileAVX2(dst []float64, ldd int, a []float64, lda, sa int, b []float64, ldt, k, rows, cols int, add bool) {
	panic("mat: gemmTileAVX2 without AVX2")
}

func dotTileAVX2(dst []float64, ldd int, a []float64, lda int, b []float64, ldb, n, cols int) {
	panic("mat: dotTileAVX2 without AVX2")
}
