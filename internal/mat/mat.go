// Package mat implements the dense linear-algebra substrate for GCN
// training: row-major float64 matrices with parallel matrix
// multiplication and the elementwise kernels used by forward and
// backward propagation.
//
// It plays the role of Intel MKL in the paper's C++ implementation
// (the weight-application step, Section V-A, is a dense GEMM). On
// amd64 CPUs with AVX2, Mul and MulAT run as register tiles — 4×8
// output blocks held in registers across the whole shared dimension,
// over b packed into 8-column panels — and MulBT as 2×4 blocks of dot
// products (the register blocking of Goto and van de Geijn, "Anatomy
// of High-Performance Matrix Multiplication"). Everywhere else, and
// for Mul and MulAT operands that hold Inf or NaN, the GEMMs run row
// by row: each output row is built from axpy (dst += α·src) or dot
// calls. Either way they parallelize across output rows via
// perf.Parallel, and every output element gets the same operations in
// the same order, so the result bits never depend on the path or on
// the worker count.
//
// The vector kernels — axpy, dot, the neighbor-row sums AddRows and
// AxpyRows of feature propagation, and the GEMM tiles — run as AVX2
// assembly on amd64 CPUs that have it, chosen once at package init
// from CPUID and XGETBV, and as Go loops everywhere else. The assembly
// never uses a fused multiply-add, which rounds once where the Go code
// rounds twice, so both paths give bit-identical results (see
// kernels.go). The race detector does not see memory accesses made
// inside assembly, so all sharding across goroutines stays in Go,
// where it does.
package mat

import (
	"fmt"
	"math"

	"gsgcn/internal/perf"
)

// Dispatch grains for the cheap kernels: parallel dispatch is only
// worth it when each chunk amortizes the pool handoff. Both are pure
// constants, so the effective decomposition stays a function of shape
// and worker count alone (the determinism contract).
const (
	// elemGrain is the minimum elements per chunk for elementwise
	// kernels (one add or one function call per index).
	elemGrain = 4096
	// copyRowGrain is the minimum rows per chunk for row-copy kernels
	// (one memmove per index).
	copyRowGrain = 64
)

// Dense is a row-major matrix. Data[i*Cols+j] is element (i, j).
// The zero value is an empty matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r x c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Reuse returns an r x c matrix backed by buf's storage when its
// capacity suffices, allocating a fresh matrix otherwise. Contents
// are unspecified — callers must fully overwrite (or Zero) the
// result. It exists so per-step scratch matrices in the training hot
// path keep their backing arrays across iterations instead of paying
// a New (allocation + GC) per kernel call.
func Reuse(buf *Dense, r, c int) *Dense {
	n := r * c
	if buf == nil || cap(buf.Data) < n {
		return New(r, c)
	}
	buf.Rows, buf.Cols = r, c
	buf.Data = buf.Data[:n]
	return buf
}

// FromData wraps the given backing slice (not copied) as an r x c
// matrix. It panics if the slice has the wrong length.
func FromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromData %dx%d needs %d elements, got %d", r, c, r*c, len(data)))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Equal reports whether m and n have identical shape and elements
// within tolerance tol. A NaN on either side matches only the same
// bits, at any tolerance.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if !(absDiff(v, n.Data[i]) <= tol) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise absolute difference; it
// is +Inf when a NaN on either side meets different bits.
func (m *Dense) MaxAbsDiff(n *Dense) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i, v := range m.Data {
		d := absDiff(v, n.Data[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > max {
			max = d
		}
	}
	return max
}

// absDiff is |v-w|, 0 for equal bits (so equal infinities and equal
// NaNs match), and NaN when a NaN meets different bits.
func absDiff(v, w float64) float64 {
	if math.Float64bits(v) == math.Float64bits(w) {
		return 0
	}
	return math.Abs(v - w)
}

// Mul computes dst = a * b using workers goroutines. dst must be
// pre-shaped (a.Rows x b.Cols) and must not alias a or b. This is the
// weight-application GEMM of the paper's Section V-A.
func Mul(dst, a, b *Dense, workers int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	pk := tilesFor(a.Rows, b)
	defer pk.release()
	perf.Parallel(ceilDiv(a.Rows, tileRows), workers, func(_, lo, hi int) {
		mulRange(dst, a, b, lo*tileRows, min(hi*tileRows, a.Rows), pk)
	})
}

// MulRange computes rows [lo, hi) of dst = a*b serially. It is the
// unit of work one (simulated) core performs in a row-sharded GEMM;
// the scaling harness measures it shard by shard.
func MulRange(dst, a, b *Dense, lo, hi int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulRange shape mismatch")
	}
	pk := tilesFor(hi-lo, b)
	defer pk.release()
	mulRange(dst, a, b, lo, hi, pk)
}

// MulBTRange computes rows [lo, hi) of dst = a * bᵀ serially.
func MulBTRange(dst, a, b *Dense, lo, hi int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulBTRange shape mismatch")
	}
	mulBTRange(dst, a, b, lo, hi)
}

// mulBTRange computes rows [lo, hi) of dst = a * bᵀ serially: every
// element is dot(a row, b row). On the AVX2 path dotTile computes row
// pairs four columns at a time with dot's exact arithmetic; the last
// odd row and the last b.Rows%4 columns call dot.
func mulBTRange(dst, a, b *Dense, lo, hi int) {
	k, n := a.Cols, b.Rows
	i := lo
	if useAVX2 {
		n4 := n &^ 3
		for ; i+2 <= hi; i += 2 {
			dotTile(dst.Data[i*n:], n, a.Data[i*k:], k, b.Data, k, k, n4)
			dotRow(dst.Row(i)[n4:], a.Row(i), b, n4)
			dotRow(dst.Row(i + 1)[n4:], a.Row(i+1), b, n4)
		}
	}
	for ; i < hi; i++ {
		dotRow(dst.Row(i), a.Row(i), b, 0)
	}
}

// dotRow sets drow[j] = dot(arow, b row j0+j).
func dotRow(drow, arow []float64, b *Dense, j0 int) {
	k := b.Cols
	for j := range drow {
		drow[j] = dot(arow, b.Data[(j0+j)*k:(j0+j+1)*k])
	}
}

// mulRange computes rows [lo, hi) of dst = a*b serially, as gemmTile
// tiles over b's panels pk when there are any (see tilesFor), else row
// by row: each output row is +0 plus alpha·(row k of b) for every
// nonzero alpha = a[i][k], in k order.
func mulRange(dst, a, b *Dense, lo, hi int, pk *panels) {
	n, k := b.Cols, a.Cols
	if pk != nil {
		for i := lo; i < hi; i += tileRows {
			gemmTile(dst.Data[i*n:], n, a.Data[i*k:], k, 1, pk.data, pk.ldt, k, min(tileRows, hi-i), n, false)
		}
		return
	}
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		for p, av := range a.Data[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			axpy(drow, b.Data[p*n:(p+1)*n], av)
		}
	}
}

// MulShards computes dst = a * b decomposed into p row shards and
// executes the shards under the simulated multicore executor,
// returning its timing. It performs exactly the same arithmetic as
// Mul; it exists so the weight-application scaling of Fig. 3C can be
// measured on hosts with few physical cores.
func MulShards(dst, a, b *Dense, p int, cfg perf.SimConfig) perf.SimResult {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulShards shape mismatch")
	}
	pk := tilesFor(a.Rows, b)
	defer pk.release()
	return perf.SimRange(a.Rows, p, cfg, func(lo, hi int) {
		mulRange(dst, a, b, lo, hi, pk)
	})
}

// MulAT computes dst = aᵀ * b (dst is a.Cols x b.Cols). Needed by the
// backward pass: dW = Hᵀ · dY.
//
// The sum over a's rows is grouped into a fixed number of row shards
// that depends only on the shape (mulATShards) — never on workers.
// Each output element is +0 plus the shard sums in shard order, where
// a shard sum runs over the shard's rows in order. Floating-point
// addition is not associative, so this fixed grouping is what makes
// the result bit-identical at every worker count (the training
// engine's determinism contract: Workers=1 and Workers=8 must produce
// the same loss trace). Workers split the output rows, so no partial
// products are stored.
func MulAT(dst, a, b *Dense, workers int) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulAT shape mismatch")
	}
	shards := mulATShards(a.Rows, a.Cols, b.Cols)
	pk := tilesFor(a.Cols, b)
	defer pk.release()
	perf.Parallel(ceilDiv(a.Cols, tileRows), workers, func(_, lo, hi int) {
		mulATRows(dst, a, b, shards, lo*tileRows, min(hi*tileRows, a.Cols), pk)
	})
}

// mulATShards returns the fixed shard count for a MulAT of the given
// shape: at least 64 rows per shard, at most 64 shards, and at most
// 16 MiB over k x n partials. The bounds date from when each shard
// stored a k x n partial product; they are kept as they are because
// the count decides how the sum is grouped, and so the result bits.
// It is a function of the problem shape only — never of the worker
// count.
func mulATShards(rows, k, n int) int {
	const minBlock = 64
	const maxShards = 64
	const partialBudget = 16 << 20 // bytes across all partial buffers
	s := rows / minBlock
	if s > maxShards {
		s = maxShards
	}
	if bytes := k * n * 8; bytes > 0 {
		if byBudget := partialBudget / bytes; s > byBudget {
			s = byBudget
		}
	}
	if s < 1 {
		s = 1
	}
	return s
}

// mulATRows computes output rows [lo, hi) of dst = aᵀ·b with
// mulATShards' grouping. With b's panels pk (see tilesFor), each shard
// adds its gemmTile sums into dst; otherwise each (shard, output row)
// sum is built row by row in part, skipping a[r][c] == 0, and then
// added.
func mulATRows(dst, a, b *Dense, shards, lo, hi int, pk *panels) {
	n, k := b.Cols, a.Cols
	clear(dst.Data[lo*n : hi*n])
	var part []float64
	if pk == nil {
		part = make([]float64, n)
	}
	for s := 0; s < shards; s++ {
		r0, r1 := s*a.Rows/shards, (s+1)*a.Rows/shards
		if r0 == r1 {
			continue
		}
		if pk != nil {
			for c := lo; c < hi; c += tileRows {
				gemmTile(dst.Data[c*n:], n, a.Data[r0*k+c:], 1, k, pk.data[r0*panelCols:], pk.ldt, r1-r0, min(tileRows, hi-c), n, true)
			}
			continue
		}
		for c := lo; c < hi; c++ {
			clear(part)
			for r := r0; r < r1; r++ {
				if av := a.Data[r*k+c]; av != 0 {
					axpy(part, b.Data[r*n:(r+1)*n], av)
				}
			}
			drow := dst.Data[c*n : (c+1)*n]
			for j, v := range part {
				drow[j] += v
			}
		}
	}
}

// MulBT computes dst = a * bᵀ (dst is a.Rows x b.Rows). Needed by the
// backward pass: dH = dY · Wᵀ.
func MulBT(dst, a, b *Dense, workers int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulBT shape mismatch")
	}
	perf.Parallel(ceilDiv(a.Rows, 2), workers, func(_, lo, hi int) {
		mulBTRange(dst, a, b, 2*lo, min(2*hi, a.Rows))
	})
}

// ceilDiv returns ⌈n/d⌉ for n ≥ 0, d > 0.
func ceilDiv(n, d int) int { return (n + d - 1) / d }

// Axpy exposes dst += alpha*src for other packages.
func Axpy(dst, src []float64, alpha float64) { axpy(dst, src, alpha) }

// Dot exposes the inner product for other packages.
func Dot(x, y []float64) float64 { return dot(x, y) }

// Add computes dst = a + b elementwise.
func Add(dst, a, b *Dense) {
	checkSameShape3(dst, a, b, "Add")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b elementwise.
func Sub(dst, a, b *Dense) {
	checkSameShape3(dst, a, b, "Sub")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// AddScaled computes dst += alpha * src.
func AddScaled(dst, src *Dense, alpha float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	axpy(dst.Data, src.Data, alpha)
}

// Scale multiplies every element by alpha in place.
func (m *Dense) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Apply sets dst[i] = f(a[i]) elementwise. dst may alias a.
func Apply(dst, a *Dense, f func(float64) float64) {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("mat: Apply shape mismatch")
	}
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
}

// ApplyP is Apply sharded across workers goroutines. Each element is
// owned by exactly one chunk, so the result is identical to Apply at
// every worker count. dst may alias a.
func ApplyP(dst, a *Dense, f func(float64) float64, workers int) {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("mat: ApplyP shape mismatch")
	}
	perf.ParallelMin(len(a.Data), elemGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] = f(a.Data[i])
		}
	})
}

// AddScaledP is AddScaled sharded across workers goroutines;
// element-owned, hence bit-identical to AddScaled at every worker
// count.
func AddScaledP(dst, src *Dense, alpha float64, workers int) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("mat: AddScaledP shape mismatch")
	}
	perf.ParallelMin(len(dst.Data), elemGrain, workers, func(_, lo, hi int) {
		axpy(dst.Data[lo:hi], src.Data[lo:hi], alpha)
	})
}

// ConcatCols writes [a | b] into dst (dst is a.Rows x (a.Cols+b.Cols)).
// This implements the neighbor-self concatenation of Algorithm 1 line 9.
func ConcatCols(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic("mat: ConcatCols shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		copy(drow[:a.Cols], a.Row(i))
		copy(drow[a.Cols:], b.Row(i))
	}
}

// ConcatColsP is ConcatCols sharded by contiguous row blocks; each
// output row is owned by exactly one worker, so the result matches
// ConcatCols bit-for-bit at every worker count.
func ConcatColsP(dst, a, b *Dense, workers int) {
	if a.Rows != b.Rows || dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic("mat: ConcatColsP shape mismatch")
	}
	perf.ParallelMin(a.Rows, copyRowGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dst.Row(i)
			copy(drow[:a.Cols], a.Row(i))
			copy(drow[a.Cols:], b.Row(i))
		}
	})
}

// SplitCols is the inverse of ConcatCols: it copies the first a.Cols
// columns of src into a and the rest into b (used to route gradients
// back through the concatenation).
func SplitCols(a, b, src *Dense) {
	if a.Rows != src.Rows || b.Rows != src.Rows || src.Cols != a.Cols+b.Cols {
		panic("mat: SplitCols shape mismatch")
	}
	for i := 0; i < src.Rows; i++ {
		srow := src.Row(i)
		copy(a.Row(i), srow[:a.Cols])
		copy(b.Row(i), srow[a.Cols:])
	}
}

// SplitColsP is SplitCols sharded by contiguous row blocks
// (row-owned, bit-identical to SplitCols at every worker count).
func SplitColsP(a, b, src *Dense, workers int) {
	if a.Rows != src.Rows || b.Rows != src.Rows || src.Cols != a.Cols+b.Cols {
		panic("mat: SplitColsP shape mismatch")
	}
	perf.ParallelMin(src.Rows, copyRowGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			srow := src.Row(i)
			copy(a.Row(i), srow[:a.Cols])
			copy(b.Row(i), srow[a.Cols:])
		}
	})
}

// GatherRows writes a[idx[i]] into dst row i. It implements
// H(0)[V_sub] of Algorithm 1 line 5.
func GatherRows(dst, a *Dense, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != a.Cols {
		panic("mat: GatherRows shape mismatch")
	}
	for i, r := range idx {
		copy(dst.Row(i), a.Data[r*a.Cols:(r+1)*a.Cols])
	}
}

// GatherRowsP is GatherRows sharded by contiguous destination row
// blocks (row-owned, bit-identical to GatherRows at every worker
// count). It parallelizes the minibatch feature/label gather of
// Algorithm 1 line 5.
func GatherRowsP(dst, a *Dense, idx []int, workers int) {
	if dst.Rows != len(idx) || dst.Cols != a.Cols {
		panic("mat: GatherRowsP shape mismatch")
	}
	perf.ParallelMin(len(idx), copyRowGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := idx[i]
			copy(dst.Row(i), a.Data[r*a.Cols:(r+1)*a.Cols])
		}
	})
}

// Transpose returns aᵀ as a new matrix.
func Transpose(a *Dense) *Dense {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out.Data[j*a.Rows+i] = v
		}
	}
	return out
}

// FrobeniusNorm returns sqrt(sum of squares).
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

func checkSameShape3(a, b, c *Dense, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Rows != c.Rows || a.Cols != c.Cols {
		panic("mat: " + op + " shape mismatch")
	}
}
