// AVX2 forms of the loops in kernel.go: four targets in the four
// lanes of a YMM register, each source broadcast to all of them. Only
// lane-wise VSUBPD/VMULPD/VADDPD/VSQRTPD/VDIVPD touch the data, in the
// order and association the Go loops write, with no fused
// multiply-add and no sum across lanes -- each lane is the scalar
// loop, bit for bit. Operand order is Go's: OP b, a, dst is dst = a OP b.

#include "textflag.h"

DATA one4<>+0(SB)/8, $0x3ff0000000000000
DATA one4<>+8(SB)/8, $0x3ff0000000000000
DATA one4<>+16(SB)/8, $0x3ff0000000000000
DATA one4<>+24(SB)/8, $0x3ff0000000000000
GLOBL one4<>(SB), RODATA|NOPTR, $32

DATA half4<>+0(SB)/8, $0x3fe0000000000000
DATA half4<>+8(SB)/8, $0x3fe0000000000000
DATA half4<>+16(SB)/8, $0x3fe0000000000000
DATA half4<>+24(SB)/8, $0x3fe0000000000000
GLOBL half4<>(SB), RODATA|NOPTR, $32

DATA c25x4<>+0(SB)/8, $0x4004000000000000
DATA c25x4<>+8(SB)/8, $0x4004000000000000
DATA c25x4<>+16(SB)/8, $0x4004000000000000
DATA c25x4<>+24(SB)/8, $0x4004000000000000
GLOBL c25x4<>(SB), RODATA|NOPTR, $32

// The probe's multiplier 1.0000000001 and addend 1e-9.
DATA probeC<>+0(SB)/8, $0x3ff000000006df38
GLOBL probeC<>(SB), RODATA|NOPTR, $8
DATA probeD<>+0(SB)/8, $0x3e112e0be826d695
GLOBL probeD<>(SB), RODATA|NOPTR, $8

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func pp4(tg *laneBlock, sx, sy, sz, sm *float64, n int, out *laneSums)
TEXT ·pp4(SB), NOSPLIT, $0-56
	MOVQ tg+0(FP), AX
	MOVQ sx+8(FP), SI
	MOVQ sy+16(FP), DI
	MOVQ sz+24(FP), R8
	MOVQ sm+32(FP), R9
	MOVQ n+40(FP), CX
	VMOVUPD 0(AX), Y0  // xi
	VMOVUPD 32(AX), Y1 // yi
	VMOVUPD 64(AX), Y2 // zi
	VMOVUPD 96(AX), Y3 // eps2
	VMOVUPD one4<>(SB), Y15
	VXORPD  Y4, Y4, Y4 // ax
	VXORPD  Y5, Y5, Y5 // ay
	VXORPD  Y6, Y6, Y6 // az
	VXORPD  Y7, Y7, Y7 // p
	XORQ    DX, DX
	JMP     pptest
pploop:
	VBROADCASTSD (SI)(DX*8), Y8
	VSUBPD  Y0, Y8, Y8    // dx = sx - xi
	VBROADCASTSD (DI)(DX*8), Y9
	VSUBPD  Y1, Y9, Y9    // dy
	VBROADCASTSD (R8)(DX*8), Y10
	VSUBPD  Y2, Y10, Y10  // dz
	VMULPD  Y8, Y8, Y11   // dx*dx
	VMULPD  Y9, Y9, Y12   // dy*dy
	VADDPD  Y12, Y11, Y11
	VMULPD  Y10, Y10, Y12 // dz*dz
	VADDPD  Y12, Y11, Y11
	VADDPD  Y3, Y11, Y11  // r2
	VSQRTPD Y11, Y11
	VDIVPD  Y11, Y15, Y11 // rv = 1/sqrt(r2)
	VBROADCASTSD (R9)(DX*8), Y12
	VMULPD  Y11, Y12, Y12 // mrv = sm*rv
	VMULPD  Y11, Y11, Y13 // rv*rv
	VMULPD  Y13, Y12, Y13 // rin3 = mrv*(rv*rv)
	VMULPD  Y8, Y13, Y14
	VADDPD  Y14, Y4, Y4   // ax += rin3*dx
	VMULPD  Y9, Y13, Y14
	VADDPD  Y14, Y5, Y5   // ay += rin3*dy
	VMULPD  Y10, Y13, Y14
	VADDPD  Y14, Y6, Y6   // az += rin3*dz
	VSUBPD  Y12, Y7, Y7   // p -= mrv
	INCQ    DX
pptest:
	CMPQ    DX, CX
	JLT     pploop
	MOVQ    out+48(FP), AX
	VMOVUPD Y4, 0(AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, 64(AX)
	VMOVUPD Y7, 96(AX)
	VZEROUPPER
	RET

// func m2pQuad4(tg *laneBlock, cols *[10]*float64, n int, out *laneSums)
//
// Twelve general registers carry the block, the ten columns and the
// index, so the targets and eps2 are read from the block as memory
// operands and the constants from read-only data; Y0-Y11 are
// temporaries, Y12-Y15 the sums.
TEXT ·m2pQuad4(SB), NOSPLIT, $0-32
	MOVQ tg+0(FP), AX
	MOVQ cols+8(FP), DX
	MOVQ 0(DX), BX   // cm
	MOVQ 8(DX), CX   // cx
	MOVQ 16(DX), SI  // cy
	MOVQ 24(DX), DI  // cz
	MOVQ 32(DX), R8  // qxx
	MOVQ 40(DX), R9  // qyy
	MOVQ 48(DX), R10 // qzz
	MOVQ 56(DX), R11 // qxy
	MOVQ 64(DX), R12 // qxz
	MOVQ 72(DX), R13 // qyz
	VXORPD Y12, Y12, Y12 // ax
	VXORPD Y13, Y13, Y13 // ay
	VXORPD Y14, Y14, Y14 // az
	VXORPD Y15, Y15, Y15 // p
	XORQ   DX, DX
	JMP    qtest
qloop:
	VBROADCASTSD (CX)(DX*8), Y0
	VSUBPD  0(AX), Y0, Y0  // da = cx - xi
	VBROADCASTSD (SI)(DX*8), Y1
	VSUBPD  32(AX), Y1, Y1 // db
	VBROADCASTSD (DI)(DX*8), Y2
	VSUBPD  64(AX), Y2, Y2 // dc
	VMULPD  Y0, Y0, Y3
	VMULPD  Y1, Y1, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  Y2, Y2, Y4
	VADDPD  Y4, Y3, Y3
	VADDPD  96(AX), Y3, Y3 // r2
	VSQRTPD Y3, Y3
	VMOVUPD one4<>(SB), Y4
	VDIVPD  Y3, Y4, Y3     // rv = 1/sqrt(r2)
	VBROADCASTSD (R8)(DX*8), Y4
	VMULPD  Y0, Y4, Y4     // qxx*da
	VBROADCASTSD (R11)(DX*8), Y7
	VMULPD  Y1, Y7, Y7     // qxy*db
	VADDPD  Y7, Y4, Y4
	VBROADCASTSD (R12)(DX*8), Y7
	VMULPD  Y2, Y7, Y7     // qxz*dc
	VADDPD  Y7, Y4, Y4     // qdx
	VBROADCASTSD (R11)(DX*8), Y5
	VMULPD  Y0, Y5, Y5     // qxy*da
	VBROADCASTSD (R9)(DX*8), Y7
	VMULPD  Y1, Y7, Y7     // qyy*db
	VADDPD  Y7, Y5, Y5
	VBROADCASTSD (R13)(DX*8), Y7
	VMULPD  Y2, Y7, Y7     // qyz*dc
	VADDPD  Y7, Y5, Y5     // qdy
	VBROADCASTSD (R12)(DX*8), Y6
	VMULPD  Y0, Y6, Y6     // qxz*da
	VBROADCASTSD (R13)(DX*8), Y7
	VMULPD  Y1, Y7, Y7     // qyz*db
	VADDPD  Y7, Y6, Y6
	VBROADCASTSD (R10)(DX*8), Y7
	VMULPD  Y2, Y7, Y7     // qzz*dc
	VADDPD  Y7, Y6, Y6     // qdz
	VMULPD  Y4, Y0, Y7     // da*qdx
	VMULPD  Y5, Y1, Y8     // db*qdy
	VADDPD  Y8, Y7, Y7
	VMULPD  Y6, Y2, Y8     // dc*qdz
	VADDPD  Y8, Y7, Y7     // dqd
	VMULPD  Y3, Y3, Y8     // rv2 = rv*rv
	VMULPD  Y8, Y3, Y9     // rv3 = rv*rv2
	VBROADCASTSD (BX)(DX*8), Y10
	VMULPD  Y3, Y10, Y3    // cm*rv
	VMULPD  Y9, Y10, Y10   // mono = cm*rv3
	VMULPD  Y8, Y9, Y9     // rv5 = rv3*rv2
	VMULPD  half4<>(SB), Y7, Y11 // 0.5*dqd
	VMULPD  Y9, Y11, Y11   // 0.5*dqd*rv5
	VADDPD  Y11, Y3, Y3    // cm*rv + 0.5*dqd*rv5
	VSUBPD  Y3, Y15, Y15   // p -= ...
	VMULPD  Y8, Y9, Y8     // rv7 = rv5*rv2
	VMULPD  c25x4<>(SB), Y7, Y7 // 2.5*dqd
	VMULPD  Y8, Y7, Y7     // cc = 2.5*dqd*rv7
	VADDPD  Y7, Y10, Y10   // mono+cc
	VMULPD  Y0, Y10, Y3    // (mono+cc)*da
	VMULPD  Y9, Y4, Y4     // qdx*rv5
	VSUBPD  Y4, Y3, Y3
	VADDPD  Y3, Y12, Y12   // ax += ...
	VMULPD  Y1, Y10, Y3    // (mono+cc)*db
	VMULPD  Y9, Y5, Y5     // qdy*rv5
	VSUBPD  Y5, Y3, Y3
	VADDPD  Y3, Y13, Y13   // ay += ...
	VMULPD  Y2, Y10, Y3    // (mono+cc)*dc
	VMULPD  Y9, Y6, Y6     // qdz*rv5
	VSUBPD  Y6, Y3, Y3
	VADDPD  Y3, Y14, Y14   // az += ...
	INCQ    DX
qtest:
	CMPQ    DX, n+16(FP)
	JLT     qloop
	MOVQ    out+24(FP), AX
	VMOVUPD Y12, 0(AX)
	VMOVUPD Y13, 32(AX)
	VMOVUPD Y14, 64(AX)
	VMOVUPD Y15, 96(AX)
	VZEROUPPER
	RET

// func mulAdd4(n int, out *[4]float64)
TEXT ·mulAdd4(SB), NOSPLIT, $0-16
	MOVQ n+0(FP), CX
	VBROADCASTSD probeC<>(SB), Y8
	VBROADCASTSD probeD<>(SB), Y9
	VMOVUPD one4<>(SB), Y0
	VMOVUPD Y0, Y1
	VMOVUPD Y0, Y2
	VMOVUPD Y0, Y3
	VMOVUPD Y0, Y4
	VMOVUPD Y0, Y5
	VMOVUPD Y0, Y6
	VMOVUPD Y0, Y7
	JMP     matest
maloop:
	VMULPD Y8, Y0, Y0
	VADDPD Y9, Y0, Y0
	VMULPD Y8, Y1, Y1
	VADDPD Y9, Y1, Y1
	VMULPD Y8, Y2, Y2
	VADDPD Y9, Y2, Y2
	VMULPD Y8, Y3, Y3
	VADDPD Y9, Y3, Y3
	VMULPD Y8, Y4, Y4
	VADDPD Y9, Y4, Y4
	VMULPD Y8, Y5, Y5
	VADDPD Y9, Y5, Y5
	VMULPD Y8, Y6, Y6
	VADDPD Y9, Y6, Y6
	VMULPD Y8, Y7, Y7
	VADDPD Y9, Y7, Y7
	DECQ   CX
matest:
	TESTQ  CX, CX
	JGT    maloop
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y2, Y0, Y0
	VADDPD Y6, Y4, Y4
	VADDPD Y4, Y0, Y0
	MOVQ   out+8(FP), AX
	VMOVUPD Y0, 0(AX)
	VZEROUPPER
	RET
