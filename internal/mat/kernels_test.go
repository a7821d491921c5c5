package mat

// Bit-identity suite for the AVX2 kernels: the assembly and Go bodies
// of axpy, dot, AddRows and AxpyRows, and every GEMM built on them, must agree to the
// bit (math.Float64bits, so signed zeros, subnormals and infinities
// count) on every input. The tests flip the package's dispatch
// variable; the Go bodies are the reference.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"gsgcn/internal/rng"
)

// withDispatch runs fn with useAVX2 set to on and restores it.
func withDispatch(on bool, fn func()) {
	saved := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = saved }()
	fn()
}

func requireAVX2(tb testing.TB) {
	tb.Helper()
	if !cpuHasAVX2() {
		tb.Skip("CPU without AVX2: only the Go kernels exist here")
	}
}

// specials are the values the kernels must not treat differently:
// signed zeros, subnormals, infinities, NaNs with distinct payloads
// and signs, and magnitudes whose products overflow.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -3.75,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 1e-300,
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7ff8000000000123),
	math.Float64frombits(0xfff8000000000456),
	math.Float64frombits(0x7ff0000000000789), // signalling NaN
}

// fillValues fills v with a seeded mix of specials and normals.
func fillValues(r *rng.RNG, v []float64) {
	for i := range v {
		if r.Intn(3) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		} else {
			v[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
		}
	}
}

// sameBits returns the first index where a and b differ in bits, or
// -1. Two NaNs match whatever their payloads: which NaN operand's
// payload a NaN+NaN keeps is operand order, which the Go compiler
// chooses per statement (see kernels.go). A NaN against a number, or a
// number against a number with other bits, is a mismatch.
func sameBits(a, b []float64) int {
	for i := range a {
		if !sameBit(a[i], b[i]) {
			return i
		}
	}
	return -1
}

func sameBit(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// kernelOutputs runs axpy and dot on one input, and AddRows and
// AxpyRows on rows idx of src (row stride stride, weights w), under
// the given dispatch; dst is not modified.
func kernelOutputs(avx2 bool, dst, src []float64, alpha float64, idx []int32, stride int, w []float64) (ax, ar, xr []float64, d float64) {
	withDispatch(avx2, func() {
		ax = append([]float64(nil), dst...)
		axpy(ax, src, alpha)
		d = dot(dst, src)
		ar = append([]float64(nil), dst...)
		AddRows(ar, src, idx, stride)
		xr = append([]float64(nil), dst...)
		AxpyRows(xr, src, idx, stride, alpha, w)
	})
	return ax, ar, xr, d
}

// checkKernels compares the two dispatch paths on one input.
func checkKernels(t *testing.T, tag string, dst, src []float64, alpha float64, idx []int32, stride int, w []float64) {
	t.Helper()
	want := make([][]float64, 3)
	var wantDot float64
	want[0], want[1], want[2], wantDot = kernelOutputs(false, dst, src, alpha, idx, stride, w)
	ax, ar, xr, d := kernelOutputs(true, dst, src, alpha, idx, stride, w)
	for k, got := range [][]float64{ax, ar, xr} {
		if i := sameBits(got, want[k]); i >= 0 {
			name := []string{"axpy", "AddRows", "AxpyRows"}[k]
			t.Fatalf("%s: %s[%d] = %#x, want %#x", tag, name, i, math.Float64bits(got[i]), math.Float64bits(want[k][i]))
		}
	}
	if !sameBit(d, wantDot) {
		t.Fatalf("%s: dot = %#x, want %#x", tag, math.Float64bits(d), math.Float64bits(wantDot))
	}
}

func TestKernelsBitIdentical(t *testing.T) {
	requireAVX2(t)
	r := rng.New(41)
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for rep := 0; rep < 4; rep++ {
				// src holds 4 rows of stride n+off+1; its first row
				// doubles as axpy's and dot's second operand.
				const rows = 4
				stride := n + off + 1
				buf := make([]float64, off+n+off+rows*stride)
				fillValues(r, buf)
				dst := buf[off : off+n]
				src := buf[off+n+off:]
				idx := make([]int32, r.Intn(6))
				for i := range idx {
					idx[i] = int32(r.Intn(rows))
				}
				w := make([]float64, rows)
				fillValues(r, w)
				alpha := specials[r.Intn(len(specials))]
				if rep == 0 {
					alpha = r.NormFloat64()
				}
				checkKernels(t, fmt.Sprintf("n=%d off=%d rep=%d", n, off, rep), dst, src, alpha, idx, stride, w)
			}
		}
	}
}

// TestKernelsNaNPayload pins the NaN cases operand order does not
// decide: a single NaN operand keeps its payload, quieted, on both
// paths.
func TestKernelsNaNPayload(t *testing.T) {
	requireAVX2(t)
	const quiet = 1 << 51
	for _, n := range []int{4, 16, 23} {
		nans := make([]float64, n)
		ones := make([]float64, n)
		for i := range nans {
			nans[i] = math.Float64frombits(0x7ff0000000000001 + uint64(i)<<40) // signalling
			ones[i] = 1
		}
		for _, avx2 := range []bool{false, true} {
			// NaN in dst, then NaN in the source row: every kernel
			// keeps that NaN's payload.
			for _, in := range [][2][]float64{{nans, ones}, {ones, nans}} {
				ax, ar, xr, _ := kernelOutputs(avx2, in[0], in[1], 2, []int32{0}, n, []float64{1})
				for i := range nans {
					want := math.Float64bits(nans[i]) | quiet
					for k, got := range []float64{ax[i], ar[i], xr[i]} {
						if math.Float64bits(got) != want {
							t.Fatalf("n=%d avx2=%v kernel %d [%d] = %#x, want %#x", n, avx2, k, i, math.Float64bits(got), want)
						}
					}
				}
			}
			// dot with a single NaN: lane 0 carries it through the sum.
			x := append([]float64(nil), ones...)
			x[0] = nans[0]
			if _, _, _, d := kernelOutputs(avx2, x, ones, 1, nil, n, nil); math.Float64bits(d) != math.Float64bits(nans[0])|quiet {
				t.Fatalf("n=%d avx2=%v dot = %#x, want %#x", n, avx2, math.Float64bits(d), math.Float64bits(nans[0])|quiet)
			}
		}
	}
}

// TestKernelsRejectShortInputs: the assembly trusts its lengths and
// indices, so the Go side must panic before it reads past an operand.
func TestKernelsRejectShortInputs(t *testing.T) {
	src := make([]float64, 4, 16) // two rows of stride 2; capacity beyond
	for _, on := range []bool{false, useAVX2} {
		withDispatch(on, func() {
			for name, fn := range map[string]func(){
				"axpy":             func() { axpy(make([]float64, 5), src, 1) },
				"dot":              func() { dot(make([]float64, 5), src) },
				"AddRows past end": func() { AddRows(make([]float64, 2), src, []int32{0, 2}, 2) },
				"AddRows negative": func() { AddRows(make([]float64, 2), src, []int32{-1}, 2) },
				"AxpyRows short w": func() { AxpyRows(make([]float64, 2), src, []int32{1}, 2, 1, []float64{1}) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s avx2=%v: did not panic", name, on)
						}
					}()
					fn()
				}()
			}
		})
	}
}

// gemmShapes are the weight-application shapes of the benchmark
// workloads: (rows, k, n) for dst(rows x n) = a(rows x k) * b(k x n),
// i.e. subgraph vertices x layer input width x hidden width. The head
// and predict shapes have n%8 != 0 (reddit's 41 classes), the predict
// batches have fewer rows than one tile, and the ragged shape has
// m%4, n%8 and k%4 (MulAT's output rows) all nonzero.
var gemmShapes = []struct {
	name    string
	m, k, n int
}{
	{"reddit-l1", 1176, 602, 128},
	{"reddit-l2", 1176, 256, 128},
	{"amazon-l1", 3697, 200, 32},
	{"reddit-head", 1176, 256, 41},
	{"predict-1", 1, 256, 41},
	{"predict-5", 5, 256, 41},
	{"predict-8", 8, 256, 41},
	{"ragged", 1173, 602, 45},
}

// finiteSpecials are the specials that are neither Inf nor NaN.
var finiteSpecials = func() []float64 {
	var out []float64
	for _, v := range specials {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}()

// sparseMat fills a rows x cols matrix with normals, a third of them
// zero (the kernels' zero skips must fire) and a sprinkle of specials.
func sparseMat(r *rng.RNG, rows, cols int) *Dense {
	return mixMat(r, rows, cols, specials)
}

// mixMat is sparseMat drawing its specials from pool.
func mixMat(r *rng.RNG, rows, cols int, pool []float64) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		switch k := r.Intn(64); {
		case k == 0:
			m.Data[i] = pool[r.Intn(len(pool))]
		case k < 22:
			m.Data[i] = 0
		default:
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

func requireSameBits(t *testing.T, tag string, got, want *Dense) {
	t.Helper()
	if i := sameBits(got.Data, want.Data); i >= 0 {
		t.Fatalf("%s: element %d = %#x, want %#x", tag, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
	}
}

// checkGEMMs runs Mul (a·b), MulAT (aᵀ·g) and MulBT (g·wtᵀ) through
// the AVX2 path at Workers 1 and 3 and requires the bits of the Go
// path at Workers 1.
func checkGEMMs(t *testing.T, tag string, a, b, g, wt *Dense) {
	t.Helper()
	m, k, n := a.Rows, a.Cols, b.Cols
	run := func(on bool, workers int) (mul, mulAT, mulBT *Dense) {
		mul, mulAT, mulBT = New(m, n), New(k, n), New(m, k)
		withDispatch(on, func() {
			Mul(mul, a, b, workers)
			MulAT(mulAT, a, g, workers)
			MulBT(mulBT, g, wt, workers)
		})
		return mul, mulAT, mulBT
	}
	wantMul, wantAT, wantBT := run(false, 1)
	for _, workers := range []int{1, 3} {
		mul, mulAT, mulBT := run(true, workers)
		tag := fmt.Sprintf("%s workers=%d", tag, workers)
		requireSameBits(t, tag+" Mul", mul, wantMul)
		requireSameBits(t, tag+" MulAT", mulAT, wantAT)
		requireSameBits(t, tag+" MulBT", mulBT, wantBT)
	}
}

// TestGEMMBitIdenticalAcrossDispatch runs every shape twice: with
// specials in all operands, where Inf or NaN in b and g sends Mul and
// MulAT to their row-wise loops, and with only finite specials in b
// and g, where they run as register tiles (Mul from minTileRows rows
// on).
func TestGEMMBitIdenticalAcrossDispatch(t *testing.T) {
	requireAVX2(t)
	for _, s := range gemmShapes {
		r := rng.New(uint64(s.m))
		a := sparseMat(r, s.m, s.k)
		b := sparseMat(r, s.k, s.n)
		g := sparseMat(r, s.m, s.n)  // dY for MulAT
		wt := sparseMat(r, s.k, s.n) // W for MulBT: dH = dY * Wᵀ
		checkGEMMs(t, s.name, a, b, g, wt)

		b, g = mixMat(r, s.k, s.n, finiteSpecials), mixMat(r, s.m, s.n, finiteSpecials)
		withDispatch(true, func() {
			if !tileable(b.Data) || !tileable(g.Data) {
				t.Fatalf("%s: finite operands not tileable", s.name)
			}
		})
		checkGEMMs(t, s.name+" finite", a, b, g, wt)
	}
}

// TestTileableSeesNonFinite: one Inf or NaN anywhere in the streamed
// operand sends the GEMM to its row-wise loop; finite specials do not.
func TestTileableSeesNonFinite(t *testing.T) {
	withDispatch(true, func() {
		for _, n := range []int{1, 4, 7, 9} {
			for pos := 0; pos < n; pos++ {
				for _, v := range specials {
					b := make([]float64, n)
					b[pos] = v
					want := !math.IsInf(v, 0) && !math.IsNaN(v)
					if got := tileable(b); got != want {
						t.Fatalf("n=%d pos=%d v=%v: tileable = %v", n, pos, v, got)
					}
				}
			}
		}
	})
	withDispatch(false, func() {
		if tileable([]float64{1}) {
			t.Fatal("tileable with the AVX2 path off")
		}
	})
}

// FuzzKernels decodes the input as little-endian float64 values split
// into dst and src halves at a fuzzed offset, and requires the two
// dispatch paths to agree bit for bit.
func FuzzKernels(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(specials...), 1.5, uint8(1))
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), math.Inf(1), uint8(0))
	f.Add(seed(math.NaN(), 0, math.Inf(-1), 1e300, 1e300), math.NaN(), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, alpha float64, off uint8) {
		requireAVX2(t)
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		o := int(off) % 4
		if o > len(vals) {
			o = len(vals)
		}
		vals = vals[o:]
		half := len(vals) / 2
		// One source row, gathered three times with weight alpha.
		checkKernels(t, "fuzz", vals[:half], vals[half:2*half], alpha, []int32{0, 0, 0}, half, []float64{alpha})
	})
}

// FuzzGEMM draws Mul, MulAT and MulBT operands of fuzzed shape (each
// dimension up to 70) from a fuzzed seed: a third of a's entries are
// zero, and mode picks the specials — none, finite ones (±0,
// subnormals, huge values) in every operand, or all of them (±Inf and
// NaN too) in a only or in every operand. Both dispatch paths and
// Workers 1 and 3 must agree bit for bit.
func FuzzGEMM(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(8), uint64(1), uint8(0))
	f.Add(uint8(70), uint8(70), uint8(70), uint64(2), uint8(1))
	f.Add(uint8(5), uint8(3), uint8(9), uint64(3), uint8(2))
	f.Add(uint8(7), uint8(13), uint8(41), uint64(4), uint8(3))
	f.Add(uint8(1), uint8(0), uint8(5), uint64(5), uint8(1))
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed uint64, mode uint8) {
		requireAVX2(t)
		dm, dk, dn := int(m)%71, int(k)%71, int(n)%71
		r := rng.New(seed)
		pa, pb := []float64{0}, []float64{0} // mode 0: zeros only
		switch mode % 4 {
		case 1:
			pa, pb = finiteSpecials, finiteSpecials
		case 2:
			pa, pb = specials, finiteSpecials
		case 3:
			pa, pb = specials, specials
		}
		a := mixMat(r, dm, dk, pa)
		b, g, wt := mixMat(r, dk, dn, pb), mixMat(r, dm, dn, pb), mixMat(r, dk, dn, pb)
		checkGEMMs(t, fmt.Sprintf("%dx%dx%d mode=%d", dm, dk, dn, mode%4), a, b, g, wt)
	})
}

// BenchmarkGEMM runs Mul, MulAT and MulBT at the workload shapes on one
// worker and reports GFLOP/s (2 flops per multiply-add), through the Go
// path, the AVX2 tiles, and for Mul and MulAT the AVX2 row-wise loops
// they fall back to when b holds a NaN. Run it with
//
//	go test -run '^$' -bench GEMM -benchtime 20x ./internal/mat
func BenchmarkGEMM(b *testing.B) {
	paths := []string{"go"}
	if cpuHasAVX2() {
		paths = append(paths, "avx2", "avx2-nonfinite")
	}
	for _, s := range gemmShapes {
		r := rng.New(uint64(s.m))
		a, bm := randMat(r, s.m, s.k), randMat(r, s.k, s.n)
		g, wt := randMat(r, s.m, s.n), randMat(r, s.k, s.n)
		bNaN, gNaN := bm.Clone(), g.Clone()
		bNaN.Data[len(bNaN.Data)-1], gNaN.Data[len(gNaN.Data)-1] = math.NaN(), math.NaN()
		mul, mulAT, mulBT := New(s.m, s.n), New(s.k, s.n), New(s.m, s.k)
		ops := []struct {
			name     string
			run      func(bm, g *Dense)
			fallback bool // has a row-wise loop for non-finite b
		}{
			{"Mul", func(bm, _ *Dense) { Mul(mul, a, bm, 1) }, true},
			{"MulAT", func(_, g *Dense) { MulAT(mulAT, a, g, 1) }, true},
			{"MulBT", func(_, g *Dense) { MulBT(mulBT, g, wt, 1) }, false},
		}
		flops := 2 * float64(s.m) * float64(s.k) * float64(s.n)
		for _, o := range ops {
			for _, path := range paths {
				ob, og := bm, g
				if path == "avx2-nonfinite" {
					if !o.fallback {
						continue
					}
					ob, og = bNaN, gNaN
				}
				b.Run(fmt.Sprintf("%s/%s/%s", o.name, s.name, path), func(b *testing.B) {
					withDispatch(path != "go", func() {
						start := time.Now()
						for i := 0; i < b.N; i++ {
							o.run(ob, og)
						}
						b.ReportMetric(flops*float64(b.N)/time.Since(start).Seconds()/1e9, "GFLOP/s")
					})
				})
			}
		}
	}
}
