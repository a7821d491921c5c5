package mat

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and .AVX,
// XCR0 bits 1 and 2, CPUID.7.0:EBX.AVX2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// axpyAVX2 computes dst += alpha * src; len(dst) is a multiple of 4
// and len(src) >= len(dst).
//
//go:noescape
func axpyAVX2(dst, src []float64, alpha float64)

// dotAVX2 returns the four lane sums of dot over x; len(x) is a
// multiple of 4 and len(y) >= len(x).
//
//go:noescape
func dotAVX2(x, y []float64) (s0, s1, s2, s3 float64)

// addRowsAVX2 is AddRows after checkRows.
//
//go:noescape
func addRowsAVX2(dst, src []float64, idx []int32, stride int)

// axpyRowsAVX2 is AxpyRows after checkRows.
//
//go:noescape
func axpyRowsAVX2(dst, src []float64, idx []int32, stride int, scale float64, w []float64)

// gemmTileAVX2 is the register tile of Mul and MulAT; see gemmTile.
//
//go:noescape
func gemmTileAVX2(dst []float64, ldd int, a []float64, lda, sa int, b []float64, ldt, k, rows, cols int, add bool)

// dotTileAVX2 is the multi-dot of MulBT; see dotTile.
//
//go:noescape
func dotTileAVX2(dst []float64, ldd int, a []float64, lda int, b []float64, ldb, n, cols int)
