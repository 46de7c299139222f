// SIMD forms of the loops in kernel.go: four targets in the four lanes
// of a YMM register (AVX2: pp4, m2pQuad4) or eight in the eight lanes
// of a ZMM register (AVX-512F: pp8, m2pQuad8), each source broadcast to
// all of them. Only lane-wise VSUBPD/VMULPD/VADDPD/VSQRTPD/VDIVPD touch
// the values, in the order and association the Go loops write, with no
// sum across lanes -- each lane is the scalar loop, bit for bit.
//
// FMA only for an exact residual, never in the value chain. pp8 finds
// 1/s by Newton-type steps on fused multiply-adds, but keeps that
// quotient only where an exact residual proves it is the correctly
// rounded one (the proof is at pp8); any other vector is recomputed by
// VDIVPD. Nothing a fused operation rounded ever reaches a sum.
//
// Operand order is Go's: OP b, a, dst is dst = a OP b; VFMADD231PD c,
// b, a is a = b*c + a, VFNMADD231PD c, b, a is a = a - b*c and
// VFMADD213PD c, b, a is a = b*a + c; VCMPPD $p, b, a, K is K = a p b.
// R14 (g) and R15 (clobbered by dynamic linking) are never used.

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

// pp8's integer 1 that steps a positive double to its predecessor,
// and the mask that clears a sign.
DATA bit1<>+0(SB)/8, $1
GLOBL bit1<>(SB), RODATA|NOPTR, $8
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
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

// func pp8(tg *laneBlock8, sx, sy, sz, sm *float64, n int, out *laneSums8)
//
// pp4 at eight lanes, with one change: rv = RN(1/s), s = RN(sqrt(r2)),
// comes from multiplies and adds wherever that can be proven right --
// the paper's Karp reciprocal, made exact. q starts at VRCP14PD(s)
// (relative error < 2^-14), takes one third-order step
// y += y*(e + e*e) (error near 2^-42) and one Newton step y += y*e
// (near 2^-84), e = 1 - s*y, all on FMAs. A lane keeps q only if
//
//	|e| < s*d/2,  e = fma(-s, q, 1),  d = q - pred(q),
//
// pred(q) being q's bits minus one. Why an accepted q is RN(1/s): for
// every finite r2 > 0, s is a normal double in [2^-537, 2^512) and q,
// within a hair of 1/s, is one too, so s*d/2 (d a power of two, near
// 2^-53 q) is exact. Write s = S*2^a and q = Q*2^b with S, Q < 2^53:
// s*q and 1 lie on the grid 2^(a+b), near 2^-105. If
// |1 - s*q| < s*d/2 <= S*2^(a+b-1), the residual is fewer than 2^52
// steps of that grid, a double, and the FMA returns it exactly; if
// not, rounding is monotone and |e| >= s*d/2. So a lane is accepted
// iff |1/s - q| < d/2. Below q, d/2 is half the gap to pred(q); above,
// at most half the gap to the successor (d = ulp(q), or ulp(q)/2 at a
// power of two); and 1/s is never a tie (a midpoint has 54 significant
// bits, and s = 2^k/odd is no double). So q = RN(1/s). A right q at a
// power of two may fail above it, which only costs the fallback. s = 0
// or +Inf makes VRCP14PD's estimate +Inf or 0 and the residual
// 0*Inf = NaN, as does a NaN s, and the compare is true on unordered,
// so every special value is the divider's. The verdict stays in K1:
// if any lane fails, the vector goes to VDIVPD out of line, which
// gives every lane, accepted or not, the bits of 1/s.
//
// Z0-Z3 the targets and eps2, Z4-Z7 the sums, Z8-Z14 and Z21
// temporaries, Z15 and Z18-Z20 the constants.
TEXT ·pp8(SB), NOSPLIT, $0-56
	MOVQ tg+0(FP), AX
	MOVQ sx+8(FP), SI
	MOVQ sy+16(FP), DI
	MOVQ sz+24(FP), R8
	MOVQ sm+32(FP), R9
	MOVQ n+40(FP), CX
	VMOVUPD 0(AX), Z0   // xi
	VMOVUPD 64(AX), Z1  // yi
	VMOVUPD 128(AX), Z2 // zi
	VMOVUPD 192(AX), Z3 // eps2
	VBROADCASTSD one4<>(SB), Z15
	VPBROADCASTQ bit1<>(SB), Z18
	VPBROADCASTQ absMask<>(SB), Z19
	VBROADCASTSD half4<>(SB), Z20
	VPXORQ  Z4, Z4, Z4 // ax
	VPXORQ  Z5, Z5, Z5 // ay
	VPXORQ  Z6, Z6, Z6 // az
	VPXORQ  Z7, Z7, Z7 // p
	XORQ    DX, DX
	JMP     pp8test
pp8loop:
	VBROADCASTSD (SI)(DX*8), Z8
	VSUBPD  Z0, Z8, Z8    // dx = sx - xi
	VBROADCASTSD (DI)(DX*8), Z9
	VSUBPD  Z1, Z9, Z9    // dy
	VBROADCASTSD (R8)(DX*8), Z10
	VSUBPD  Z2, Z10, Z10  // dz
	VMULPD  Z8, Z8, Z11   // dx*dx
	VMULPD  Z9, Z9, Z12   // dy*dy
	VADDPD  Z12, Z11, Z11
	VMULPD  Z10, Z10, Z12 // dz*dz
	VADDPD  Z12, Z11, Z11
	VADDPD  Z3, Z11, Z11  // r2
	VSQRTPD Z11, Z11      // s = sqrt(r2)
	VRCP14PD Z11, Z12     // y ~ 1/s
	VMOVAPD Z15, Z13
	VFNMADD231PD Z12, Z11, Z13 // e = 1 - s*y
	VFMADD213PD  Z13, Z13, Z13 // e + e*e
	VFMADD231PD  Z13, Z12, Z12 // y += y*(e + e*e)
	VMOVAPD Z15, Z13
	VFNMADD231PD Z12, Z11, Z13 // e = 1 - s*y
	VFMADD231PD  Z13, Z12, Z12 // q = y + y*e
	VMOVAPD Z15, Z13
	VFNMADD231PD Z12, Z11, Z13 // e = 1 - s*q, exact where it decides
	VPSUBQ  Z18, Z12, Z14      // pred(q)
	VSUBPD  Z14, Z12, Z14      // d = q - pred(q)
	VMULPD  Z11, Z14, Z14
	VMULPD  Z20, Z14, Z14      // s*d/2
	VPANDQ  Z19, Z13, Z13      // |e|
	VCMPPD  $0x05, Z14, Z13, K1 // not |e| < s*d/2
	KORTESTW K1, K1
	JNZ     pp8div
pp8rv:
	VBROADCASTSD (R9)(DX*8), Z13
	VMULPD  Z12, Z13, Z13 // mrv = sm*rv
	VMULPD  Z12, Z12, Z14 // rv*rv
	VMULPD  Z14, Z13, Z14 // rin3 = mrv*(rv*rv)
	VMULPD  Z8, Z14, Z21
	VADDPD  Z21, Z4, Z4   // ax += rin3*dx
	VMULPD  Z9, Z14, Z21
	VADDPD  Z21, Z5, Z5   // ay += rin3*dy
	VMULPD  Z10, Z14, Z21
	VADDPD  Z21, Z6, Z6   // az += rin3*dz
	VSUBPD  Z13, Z7, Z7   // p -= mrv
	INCQ    DX
pp8test:
	CMPQ    DX, CX
	JLT     pp8loop
	MOVQ    out+48(FP), AX
	VMOVUPD Z4, 0(AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, 128(AX)
	VMOVUPD Z7, 192(AX)
	VZEROUPPER
	RET
pp8div:
	VDIVPD  Z11, Z15, Z12 // rv = 1/s
	JMP     pp8rv

// func m2pQuad8(tg *laneBlock8, cols *[10]*float64, n int, out *laneSums8)
//
// m2pQuad4 at eight lanes, instruction for instruction; with 32
// registers the targets and constants stay in Z16-Z22. Its reciprocal
// is VDIVPD: 54 other operations per interaction keep this loop on the
// multiply and add ports, where pp8's Newton steps only cost.
TEXT ·m2pQuad8(SB), NOSPLIT, $0-32
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
	VMOVUPD 0(AX), Z16   // xi
	VMOVUPD 64(AX), Z17  // yi
	VMOVUPD 128(AX), Z18 // zi
	VMOVUPD 192(AX), Z19 // eps2
	VBROADCASTSD one4<>(SB), Z20
	VBROADCASTSD half4<>(SB), Z21
	VBROADCASTSD c25x4<>(SB), Z22
	VPXORQ Z12, Z12, Z12 // ax
	VPXORQ Z13, Z13, Z13 // ay
	VPXORQ Z14, Z14, Z14 // az
	VPXORQ Z15, Z15, Z15 // p
	XORQ   DX, DX
	JMP    q8test
q8loop:
	VBROADCASTSD (CX)(DX*8), Z0
	VSUBPD  Z16, Z0, Z0    // da = cx - xi
	VBROADCASTSD (SI)(DX*8), Z1
	VSUBPD  Z17, Z1, Z1    // db
	VBROADCASTSD (DI)(DX*8), Z2
	VSUBPD  Z18, Z2, Z2    // dc
	VMULPD  Z0, Z0, Z3
	VMULPD  Z1, Z1, Z4
	VADDPD  Z4, Z3, Z3
	VMULPD  Z2, Z2, Z4
	VADDPD  Z4, Z3, Z3
	VADDPD  Z19, Z3, Z3    // r2
	VSQRTPD Z3, Z3
	VDIVPD  Z3, Z20, Z3    // rv = 1/sqrt(r2)
	VBROADCASTSD (R8)(DX*8), Z4
	VMULPD  Z0, Z4, Z4     // qxx*da
	VBROADCASTSD (R11)(DX*8), Z7
	VMULPD  Z1, Z7, Z7     // qxy*db
	VADDPD  Z7, Z4, Z4
	VBROADCASTSD (R12)(DX*8), Z7
	VMULPD  Z2, Z7, Z7     // qxz*dc
	VADDPD  Z7, Z4, Z4     // qdx
	VBROADCASTSD (R11)(DX*8), Z5
	VMULPD  Z0, Z5, Z5     // qxy*da
	VBROADCASTSD (R9)(DX*8), Z7
	VMULPD  Z1, Z7, Z7     // qyy*db
	VADDPD  Z7, Z5, Z5
	VBROADCASTSD (R13)(DX*8), Z7
	VMULPD  Z2, Z7, Z7     // qyz*dc
	VADDPD  Z7, Z5, Z5     // qdy
	VBROADCASTSD (R12)(DX*8), Z6
	VMULPD  Z0, Z6, Z6     // qxz*da
	VBROADCASTSD (R13)(DX*8), Z7
	VMULPD  Z1, Z7, Z7     // qyz*db
	VADDPD  Z7, Z6, Z6
	VBROADCASTSD (R10)(DX*8), Z7
	VMULPD  Z2, Z7, Z7     // qzz*dc
	VADDPD  Z7, Z6, Z6     // qdz
	VMULPD  Z4, Z0, Z7     // da*qdx
	VMULPD  Z5, Z1, Z8     // db*qdy
	VADDPD  Z8, Z7, Z7
	VMULPD  Z6, Z2, Z8     // dc*qdz
	VADDPD  Z8, Z7, Z7     // dqd
	VMULPD  Z3, Z3, Z8     // rv2 = rv*rv
	VMULPD  Z8, Z3, Z9     // rv3 = rv*rv2
	VBROADCASTSD (BX)(DX*8), Z10
	VMULPD  Z3, Z10, Z3    // cm*rv
	VMULPD  Z9, Z10, Z10   // mono = cm*rv3
	VMULPD  Z8, Z9, Z9     // rv5 = rv3*rv2
	VMULPD  Z21, Z7, Z11   // 0.5*dqd
	VMULPD  Z9, Z11, Z11   // 0.5*dqd*rv5
	VADDPD  Z11, Z3, Z3    // cm*rv + 0.5*dqd*rv5
	VSUBPD  Z3, Z15, Z15   // p -= ...
	VMULPD  Z8, Z9, Z8     // rv7 = rv5*rv2
	VMULPD  Z22, Z7, Z7    // 2.5*dqd
	VMULPD  Z8, Z7, Z7     // cc = 2.5*dqd*rv7
	VADDPD  Z7, Z10, Z10   // mono+cc
	VMULPD  Z0, Z10, Z3    // (mono+cc)*da
	VMULPD  Z9, Z4, Z4     // qdx*rv5
	VSUBPD  Z4, Z3, Z3
	VADDPD  Z3, Z12, Z12   // ax += ...
	VMULPD  Z1, Z10, Z3    // (mono+cc)*db
	VMULPD  Z9, Z5, Z5     // qdy*rv5
	VSUBPD  Z5, Z3, Z3
	VADDPD  Z3, Z13, Z13   // ay += ...
	VMULPD  Z2, Z10, Z3    // (mono+cc)*dc
	VMULPD  Z9, Z6, Z6     // qdz*rv5
	VSUBPD  Z6, Z3, Z3
	VADDPD  Z3, Z14, Z14   // az += ...
	INCQ    DX
q8test:
	CMPQ    DX, n+16(FP)
	JLT     q8loop
	MOVQ    out+24(FP), AX
	VMOVUPD Z12, 0(AX)
	VMOVUPD Z13, 64(AX)
	VMOVUPD Z14, 128(AX)
	VMOVUPD Z15, 192(AX)
	VZEROUPPER
	RET

// func mulAdd8(n int, out *[8]float64)
TEXT ·mulAdd8(SB), NOSPLIT, $0-16
	MOVQ n+0(FP), CX
	VBROADCASTSD probeC<>(SB), Z8
	VBROADCASTSD probeD<>(SB), Z9
	VBROADCASTSD one4<>(SB), Z0
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	VMOVAPD Z0, Z4
	VMOVAPD Z0, Z5
	VMOVAPD Z0, Z6
	VMOVAPD Z0, Z7
	JMP     ma8test
ma8loop:
	VMULPD Z8, Z0, Z0
	VADDPD Z9, Z0, Z0
	VMULPD Z8, Z1, Z1
	VADDPD Z9, Z1, Z1
	VMULPD Z8, Z2, Z2
	VADDPD Z9, Z2, Z2
	VMULPD Z8, Z3, Z3
	VADDPD Z9, Z3, Z3
	VMULPD Z8, Z4, Z4
	VADDPD Z9, Z4, Z4
	VMULPD Z8, Z5, Z5
	VADDPD Z9, Z5, Z5
	VMULPD Z8, Z6, Z6
	VADDPD Z9, Z6, Z6
	VMULPD Z8, Z7, Z7
	VADDPD Z9, Z7, Z7
	DECQ   CX
ma8test:
	TESTQ  CX, CX
	JGT    ma8loop
	VADDPD Z1, Z0, Z0
	VADDPD Z3, Z2, Z2
	VADDPD Z5, Z4, Z4
	VADDPD Z7, Z6, Z6
	VADDPD Z2, Z0, Z0
	VADDPD Z6, Z4, Z4
	VADDPD Z4, Z0, Z0
	MOVQ   out+8(FP), AX
	VMOVUPD Z0, 0(AX)
	VZEROUPPER
	RET
