package mat

import (
	"math"
	"sync"
)

// The inner loops every GEMM and propagation kernel runs through: axpy
// (dst += α·src), dot, AddRows/AxpyRows, the add and axpy forms that
// sum a vertex's neighbor rows in one call, and the GEMM tiles
// gemmTile (Mul, MulAT) and dotTile (MulBT). axpy, dot and the row
// kernels have a Go body (the reference, and the path on CPUs and
// architectures without AVX2) and an AVX2 body in kernels_amd64.s. The
// tiles exist only in assembly; their reference is the row-wise GEMM
// loops built from axpy and dot, whose arithmetic they repeat for
// every output element: the same products, summed in the same order,
// with dot's four lanes, in-order lane sum and tail kept lane for lane.
// The assembly uses separate multiplies and adds (VMULPD/VADDPD, and
// VMULSD/VADDSD for the row kernels' last len%4 elements), never a
// fused multiply-add, so every result is bit-identical whichever path
// runs. axpy's tail and dot's horizontal sum and tail stay in Go;
// dotTile does them in assembly, in the same order. The row-wise GEMM
// loops skip a == 0 and the tiles do not, which is exact only when the
// operand those skipped products would multiply is finite: tileable
// checks that before a GEMM tiles.
//
// The one freedom left is the payload of a NaN produced from two NaN
// operands: IEEE 754 leaves open which operand's payload survives, x86
// keeps the first operand's, and the Go compiler picks the operand
// order of a commutative add or multiply per statement. Such a result
// is NaN on both paths, with either payload.

// useAVX2 routes axpy, dot, AddRows and AxpyRows through the assembly
// kernels and lets the GEMMs run as tiles. It is set once at package init from the CPU features and is
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

// tileRows and panelCols are the height and width of gemmTile's
// output tile; panelCols is also the width of the column panels its b
// operand is packed into.
const (
	tileRows  = 4
	panelCols = 8
)

// gemmTile computes a rows×cols block of a product, 1 ≤ rows ≤
// tileRows: for r < rows and j < cols, with acc starting at +0,
//
//	acc = acc + a[r*lda+p*sa] * B[p][j]   for p = 0, 1, …, k-1,
//
// then dst[r*ldd+j] = acc, or dst[r*ldd+j] + acc when add is set. B is
// in panels (see panels): B[p][j] = b[(j/panelCols)*ldt +
// p*panelCols + j%panelCols]. That is the row-wise loop's arithmetic
// for one output element without its a == 0 skips, so the GEMMs call
// it only when B is finite (see tileable). It runs on the AVX2 path
// only.
func gemmTile(dst []float64, ldd int, a []float64, lda, sa int, b []float64, ldt, k, rows, cols int, add bool) {
	if rows < 1 || rows > tileRows || cols < 1 {
		return
	}
	if (rows-1)*ldd+cols > len(dst) ||
		k > 0 && ((rows-1)*lda+(k-1)*sa >= len(a) || (cols-1)/panelCols*ldt+k*panelCols > len(b)) {
		panic("mat: gemmTile out of range")
	}
	gemmTileAVX2(dst, ldd, a, lda, sa, b, ldt, k, rows, cols, add)
}

// dotTile sets dst[r*ldd+j] = dot(a[r*lda:][:n], b[j*ldb:][:n]) for the
// two rows r < 2 and the cols (a multiple of 4) columns j, bit for bit:
// each output keeps dot's four lanes, in-order lane sum and tail. It
// runs on the AVX2 path only.
func dotTile(dst []float64, ldd int, a []float64, lda int, b []float64, ldb, n, cols int) {
	if cols <= 0 {
		return
	}
	if cols%4 != 0 || ldd+cols > len(dst) || lda+n > len(a) || (cols-1)*ldb+n > len(b) {
		panic("mat: dotTile out of range")
	}
	dotTileAVX2(dst, ldd, a, lda, b, ldb, n, cols)
}

// tileable reports whether a GEMM whose row-wise loop skips a == 0 may
// run as gemmTile tiles instead: the AVX2 path is on and b, the operand
// those skipped products would multiply, holds no Inf or NaN. A skipped
// product is then 0·b = ±0, and adding ±0 leaves an accumulator that
// started at +0 unchanged (it is never −0), so the tile and the skip
// give the same bits.
func tileable(b []float64) bool {
	if !useAVX2 {
		return false
	}
	// x-x is 0 for finite x and NaN otherwise; four sums keep the scan
	// off one add chain.
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(b); i += 4 {
		s0 += b[i] - b[i]
		s1 += b[i+1] - b[i+1]
		s2 += b[i+2] - b[i+2]
		s3 += b[i+3] - b[i+3]
	}
	for ; i < len(b); i++ {
		s0 += b[i] - b[i]
	}
	return s0+s1+s2+s3 == 0
}

// minTileRows is the fewest output rows for which a GEMM packs b and
// runs as tiles. Below it, packing b is a large share of the work: at
// 1–8 rows the row-wise loop is faster outright, and around 16 rows
// the tiles gain little while the first call that grows the panel
// buffer pays for it in one shard of the Fig. 3C harness's per-shard
// timings.
const minTileRows = 32

// panels is b packed for gemmTile: panel t holds
// b[p][panelCols*t:][:panelCols] for p = 0, 1, …, b.Rows-1 one after
// another, zero past b.Cols, and starts at t*ldt with ldt =
// b.Rows*panelCols. The kernel then reads b sequentially instead of
// one row stride per step.
type panels struct {
	data []float64
	ldt  int
}

// panelPool recycles panels, so a GEMM run in a loop (every training
// step, every vertex block of FullEmbeddings) does not allocate, and
// leave for the collector, a packed copy of b on each call. Results
// never depend on it.
var panelPool = sync.Pool{New: func() any { return new(panels) }}

// tilesFor returns b packed for gemmTile when a GEMM with rows output
// rows runs as tiles: b is tileable and rows reaches minTileRows.
// Otherwise it returns nil, and the GEMM runs its row-wise loop. The
// caller releases the result when the GEMM is done.
func tilesFor(rows int, b *Dense) *panels {
	if rows < minTileRows || !tileable(b.Data) {
		return nil
	}
	pk := panelPool.Get().(*panels)
	k, n := b.Rows, b.Cols
	pk.ldt = k * panelCols
	size := ceilDiv(n, panelCols) * pk.ldt
	if cap(pk.data) < size {
		pk.data = make([]float64, size)
	}
	pk.data = pk.data[:size]
	if n%panelCols != 0 {
		clear(pk.data[size-pk.ldt:])
	}
	for p := 0; p < k; p++ {
		row := b.Row(p)
		for j := 0; j < n; j += panelCols {
			copy(pk.data[j/panelCols*pk.ldt+p*panelCols:], row[j:min(j+panelCols, n)])
		}
	}
	return pk
}

// release hands pk back to panelPool; nil is a no-op.
func (pk *panels) release() {
	if pk != nil {
		panelPool.Put(pk)
	}
}
