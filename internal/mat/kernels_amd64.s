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
