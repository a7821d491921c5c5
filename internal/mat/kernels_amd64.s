#include "textflag.h"

// AVX2 bodies of axpy, dot, AddRows and AxpyRows (see kernels.go).
// Every product is a VMULPD/VMULSD and every sum a VADDPD/VADDSD: no
// FMA, because a fused multiply-add rounds once and would change the
// result bits. In Go assembly "VOP b, a, d" computes d = a op b; the
// first source a is the product (axpy, dot) or the source row
// (AddRows), as in the Go loops.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(dst, src []float64, alpha float64)
//
// dst[i] = (src[i] * alpha) + dst[i], 16 elements per iteration, then
// 4 at a time.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD alpha+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX

axpy16:
	CMPQ    AX, DX
	JGE     axpy4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     axpy16

axpy4:
	CMPQ    AX, CX
	JGE     axpydone
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy4

axpydone:
	VZEROUPPER
	RET

// func dotAVX2(x, y []float64) (s0, s1, s2, s3 float64)
//
// One accumulator, lane m = (x[i+m] * y[i+m]) + lane m for i = 0, 4,
// 8, …: exactly the Go partial sums s0..s3. A second accumulator would
// reassociate the sums, so the loop is bound by VADDPD latency.
TEXT ·dotAVX2(SB), NOSPLIT, $0-80
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

dot4:
	CMPQ    AX, CX
	JGE     dotdone
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y0, Y1, Y0
	ADDQ    $4, AX
	JMP     dot4

dotdone:
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X0, s0+48(FP)
	VMOVHPD      X0, s1+56(FP)
	VMOVSD       X1, s2+64(FP)
	VMOVHPD      X1, s3+72(FP)
	VZEROUPPER
	RET

// func addRowsAVX2(dst, src []float64, idx []int32, stride int)
//
// For each u in idx: dst[i] = src[u*stride+i] + dst[i], 16 elements
// per iteration, then 4, then 1.
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ stride+72(FP), R10
	SHLQ $3, R10
	MOVQ CX, DX
	ANDQ $-16, DX
	MOVQ CX, R12
	ANDQ $-4, R12
	XORQ R11, R11

addrow:
	CMPQ    R11, R9
	JGE     addrowsdone
	MOVLQSX (R8)(R11*4), BX
	IMULQ   R10, BX
	ADDQ    SI, BX
	XORQ    AX, AX

addrow16:
	CMPQ    AX, DX
	JGE     addrow4
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD 32(BX)(AX*8), Y2
	VMOVUPD 64(BX)(AX*8), Y3
	VMOVUPD 96(BX)(AX*8), Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     addrow16

addrow4:
	CMPQ    AX, R12
	JGE     addrow1
	VMOVUPD (BX)(AX*8), Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     addrow4

addrow1:
	CMPQ   AX, CX
	JGE    addrownext
	VMOVSD (BX)(AX*8), X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    addrow1

addrownext:
	INCQ R11
	JMP  addrow

addrowsdone:
	VZEROUPPER
	RET

// func axpyRowsAVX2(dst, src []float64, idx []int32, stride int, scale float64, w []float64)
//
// For each u in idx: alpha = scale * w[u], then dst[i] =
// (src[u*stride+i] * alpha) + dst[i], 16 elements per iteration, then
// 4, then 1.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-112
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	MOVQ   idx_base+48(FP), R8
	MOVQ   idx_len+56(FP), R9
	MOVQ   stride+72(FP), R10
	VMOVSD scale+80(FP), X7
	MOVQ   w_base+88(FP), R13
	SHLQ   $3, R10
	MOVQ   CX, DX
	ANDQ   $-16, DX
	MOVQ   CX, R12
	ANDQ   $-4, R12
	XORQ   R11, R11

axpyrow:
	CMPQ         R11, R9
	JGE          axpyrowsdone
	MOVLQSX      (R8)(R11*4), BX
	VMULSD       (R13)(BX*8), X7, X0
	VBROADCASTSD X0, Y0
	IMULQ        R10, BX
	ADDQ         SI, BX
	XORQ         AX, AX

axpyrow16:
	CMPQ    AX, DX
	JGE     axpyrow4
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD 32(BX)(AX*8), Y2
	VMOVUPD 64(BX)(AX*8), Y3
	VMOVUPD 96(BX)(AX*8), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     axpyrow16

axpyrow4:
	CMPQ    AX, R12
	JGE     axpyrow1
	VMOVUPD (BX)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpyrow4

axpyrow1:
	CMPQ   AX, CX
	JGE    axpyrownext
	VMOVSD (BX)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpyrow1

axpyrownext:
	INCQ R11
	JMP  axpyrow

axpyrowsdone:
	VZEROUPPER
	RET

// Register tile of Mul and MulAT: one step p of the shared dimension
// for the four tile rows. Y8 and Y9 hold the panel's b[p][j:j+8]; AX
// is p·sa·8. Each accumulator becomes acc + (a_r[p]·b[p][j]), the
// operation and operand order of axpy's dst[j] += alpha*src[j].
#define GEMM_STEP \
	VMOVUPD      (R12), Y8; \
	VMOVUPD      32(R12), Y9; \
	VBROADCASTSD (R8)(AX*1), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, Y0, Y0; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, Y1, Y1; \
	VBROADCASTSD (R9)(AX*1), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, Y2, Y2; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, Y3, Y3; \
	VBROADCASTSD (R10)(AX*1), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, Y4, Y4; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, Y5, Y5; \
	VBROADCASTSD (R11)(AX*1), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, Y6, Y6; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, Y7, Y7; \
	ADDQ         SI, AX; \
	ADDQ         $64, R12

// Writes one tile row's accumulators (lo, hi) to the row at R12 under
// the column masks Y13 and Y14: a plain store, or dst + acc in add
// mode (flag in CX).
#define GEMM_PUT(lo, hi) \
	TESTQ      CX, CX; \
	JZ         5(PC); \
	VMASKMOVPD (R12), Y13, Y8; \
	VMASKMOVPD 32(R12), Y14, Y9; \
	VADDPD     lo, Y8, lo; \
	VADDPD     hi, Y9, hi; \
	VMASKMOVPD lo, Y13, (R12); \
	VMASKMOVPD hi, Y14, 32(R12)

// func gemmTileAVX2(dst []float64, ldd int, a []float64, lda, sa int, b []float64, ldt, k, rows, cols int, add bool)
//
// For r < rows (1 to 4) and j < cols: acc = +0, then for p < k,
// acc = acc + a[r*lda+p*sa]*B[p][j]; dst[r*ldd+j] = acc, or
// dst[r*ldd+j] + acc when add is set. B is packed in column panels of
// 8: B[p][j] is b[(j/8)*ldt + p*8 + j%8]. Each 4×8 output tile lives in
// Y0–Y7 (row r in Y(2r), Y(2r+1)); a step is one broadcast per row and
// two sequential loads of the panel. The last tile stores only its
// first cols%8 columns (if nonzero), and rows past rows repeat row 0's
// loads and are not stored.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-129
	MOVQ    dst_base+0(FP), DI
	MOVQ    a_base+32(FP), R8
	MOVQ    lda+56(FP), AX
	SHLQ    $3, AX
	LEAQ    (R8)(AX*1), R9
	LEAQ    (R9)(AX*1), R10
	LEAQ    (R10)(AX*1), R11
	MOVQ    rows+112(FP), CX
	CMPQ    CX, $2
	CMOVQLT R8, R9
	CMPQ    CX, $3
	CMOVQLT R8, R10
	CMPQ    CX, $4
	CMOVQLT R8, R11
	MOVQ    sa+64(FP), SI
	SHLQ    $3, SI
	MOVQ    b_base+72(FP), BX
	MOVQ    ldt+96(FP), DX
	SHLQ    $3, DX
	MOVQ    cols+120(FP), R13

gemmtile:
	CMPQ    R13, $0
	JLE     gemmdone
	MOVQ    $8, AX
	MOVQ    R13, CX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	SUBQ    CX, AX
	LEAQ    gemmMask<>(SB), R12
	VMOVUPD (R12)(AX*8), Y13
	VMOVUPD 32(R12)(AX*8), Y14
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	MOVQ    BX, R12
	XORQ    AX, AX
	MOVQ    k+104(FP), CX

gemmstep:
	TESTQ CX, CX
	JZ    gemmput
	GEMM_STEP
	DECQ  CX
	JMP   gemmstep

gemmput:
	MOVQ    ldd+24(FP), AX
	SHLQ    $3, AX
	MOVBQZX add+128(FP), CX
	MOVQ    DI, R12
	GEMM_PUT(Y0, Y1)
	CMPQ    rows+112(FP), $2
	JLT     gemmnext
	ADDQ    AX, R12
	GEMM_PUT(Y2, Y3)
	CMPQ    rows+112(FP), $3
	JLT     gemmnext
	ADDQ    AX, R12
	GEMM_PUT(Y4, Y5)
	CMPQ    rows+112(FP), $4
	JLT     gemmnext
	ADDQ    AX, R12
	GEMM_PUT(Y6, Y7)

gemmnext:
	ADDQ $64, DI
	ADDQ DX, BX
	SUBQ $8, R13
	JMP  gemmtile

gemmdone:
	VZEROUPPER
	RET

// Column masks of gemmTileAVX2's stores: the 8 quadwords from index
// 8-w on have their first w set.
DATA gemmMask<>+0(SB)/8, $-1
DATA gemmMask<>+8(SB)/8, $-1
DATA gemmMask<>+16(SB)/8, $-1
DATA gemmMask<>+24(SB)/8, $-1
DATA gemmMask<>+32(SB)/8, $-1
DATA gemmMask<>+40(SB)/8, $-1
DATA gemmMask<>+48(SB)/8, $-1
DATA gemmMask<>+56(SB)/8, $-1
DATA gemmMask<>+64(SB)/8, $0
DATA gemmMask<>+72(SB)/8, $0
DATA gemmMask<>+80(SB)/8, $0
DATA gemmMask<>+88(SB)/8, $0
DATA gemmMask<>+96(SB)/8, $0
DATA gemmMask<>+104(SB)/8, $0
DATA gemmMask<>+112(SB)/8, $0
DATA gemmMask<>+120(SB)/8, $0
GLOBL gemmMask<>(SB), RODATA|NOPTR, $128

// Multi-dot of MulBT, one 4-element step: Y8 and Y9 hold x0[i:i+4] and
// x1[i:i+4], and y is the b row at ptr. Each lane becomes
// lane + (x[i+m]·y[i+m]), dot's s_m += x*y.
#define DOT_STEP(ptr, acc0, acc1) \
	VMOVUPD (ptr)(AX*1), Y10; \
	VMULPD  Y10, Y8, Y11; \
	VADDPD  Y11, acc0, acc0; \
	VMULPD  Y10, Y9, Y12; \
	VADDPD  Y12, acc1, acc1

// Horizontal sums of four dot accumulators, left in a0: lane j of the
// result is ((s0+s1)+s2)+s3 of accumulator aj, dot's in-order sum.
#define DOT_HSUM(a0, a1, a2, a3) \
	VUNPCKLPD  a1, a0, Y8; \
	VUNPCKHPD  a1, a0, Y9; \
	VUNPCKLPD  a3, a2, Y10; \
	VUNPCKHPD  a3, a2, Y11; \
	VPERM2F128 $0x20, Y10, Y8, a0; \
	VPERM2F128 $0x31, Y10, Y8, a2; \
	VPERM2F128 $0x20, Y11, Y9, a1; \
	VPERM2F128 $0x31, Y11, Y9, a3; \
	VADDPD     a1, a0, a0; \
	VADDPD     a2, a0, a0; \
	VADDPD     a3, a0, a0

// func dotTileAVX2(dst []float64, ldd int, a []float64, lda int, b []float64, ldb, n, cols int)
//
// For r < 2 and j < cols (a multiple of 4): dst[r*ldd+j] =
// dot(a[r*lda:][:n], b[j*ldb:][:n]), bit for bit. A block of 2×4
// outputs keeps one 4-lane accumulator each (Y0–Y3 for a's row 0,
// Y4–Y7 for row 1), so lane m is dot's s_m; the lanes are then summed
// in order and the len%4 tail added last, four outputs at a time.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+32(FP), R8
	MOVQ lda+56(FP), R9
	LEAQ (R8)(R9*8), R9
	MOVQ b_base+64(FP), BX
	MOVQ ldb+88(FP), DX
	SHLQ $3, DX
	MOVQ n+96(FP), R14
	SHLQ $3, R14
	MOVQ R14, CX
	ANDQ $-32, CX
	MOVQ cols+104(FP), SI

dotblock:
	CMPQ   SI, $4
	JLT    dotdone
	MOVQ   BX, R10
	LEAQ   (R10)(DX*1), R11
	LEAQ   (R11)(DX*1), R12
	LEAQ   (R12)(DX*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX

dotstep:
	CMPQ    AX, CX
	JGE     dotsum
	VMOVUPD (R8)(AX*1), Y8
	VMOVUPD (R9)(AX*1), Y9
	DOT_STEP(R10, Y0, Y4)
	DOT_STEP(R11, Y1, Y5)
	DOT_STEP(R12, Y2, Y6)
	DOT_STEP(R13, Y3, Y7)
	ADDQ    $32, AX
	JMP     dotstep

dotsum:
	DOT_HSUM(Y0, Y1, Y2, Y3)
	DOT_HSUM(Y4, Y5, Y6, Y7)

dottail:
	// s += x[i]*y[i] for the tail, with y gathered from the four rows.
	CMPQ         AX, R14
	JGE          dotput
	VMOVSD       (R10)(AX*1), X8
	VMOVHPD      (R11)(AX*1), X8, X8
	VMOVSD       (R12)(AX*1), X9
	VMOVHPD      (R13)(AX*1), X9, X9
	VINSERTF128  $1, X9, Y8, Y8
	VBROADCASTSD (R8)(AX*1), Y9
	VMULPD       Y8, Y9, Y10
	VADDPD       Y10, Y0, Y0
	VBROADCASTSD (R9)(AX*1), Y9
	VMULPD       Y8, Y9, Y10
	VADDPD       Y10, Y4, Y4
	ADDQ         $8, AX
	JMP          dottail

dotput:
	MOVQ    ldd+24(FP), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $32, DI
	LEAQ    (R13)(DX*1), BX
	SUBQ    $4, SI
	JMP     dotblock

dotdone:
	VZEROUPPER
	RET
