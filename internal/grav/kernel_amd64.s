// SIMD forms of the loops in kernel.go: four targets in the four lanes
// of a YMM register (AVX2 and FMA: pp4, m2pQuad4) or eight in the eight
// lanes of a ZMM register (AVX-512F: pp8, m2pQuad8), each source
// broadcast to all of them. Only lane-wise subtracts, multiplies, fused
// multiply-adds and the integer seed of invSqrt touch the values, in
// the order, association and fusion the Go loops write, with no sum
// across lanes -- each lane is the scalar loop, bit for bit. A fused
// multiply-add rounds once wherever it stands, so it is as portable
// between the two as a multiply.
//
// The reciprocal square root is invSqrt's: y = magic - bits(r2)>>1 and
// four Newton steps y *= fma(-r2/2, y*y, 1.5). Two compares per source
// find lanes whose r2 lies outside [2^-1000, 2^1000) -- zero,
// subnormal, huge, negative, Inf or NaN -- and such a vector branches
// out of line, where VSQRTPD and VDIVPD give those lanes 1/sqrt(r2) and
// a blend keeps the Newton value in the others.
//
// Operand order is Go's: OP b, a, dst is dst = a OP b; VFMADD231PD c,
// b, a is a = b*c + a, VFNMADD231PD c, b, a is a = a - b*c and
// VFMADD213PD c, b, a is a = b*a + c (a .BCST operand is one double
// broadcast from memory); VCMPPD $p, b, a, K is K = a p b, with
// predicates 0x19 "not >=" and 0x15 "not <", both true on NaN;
// VBLENDVPD m, x, y, dst is dst = m ? x : y.
// R14 (g) and R15 (clobbered by dynamic linking) are never used.

#include "textflag.h"

DATA one4<>+0(SB)/8, $0x3ff0000000000000
DATA one4<>+8(SB)/8, $0x3ff0000000000000
DATA one4<>+16(SB)/8, $0x3ff0000000000000
DATA one4<>+24(SB)/8, $0x3ff0000000000000
GLOBL one4<>(SB), RODATA|NOPTR, $32

DATA c15x4<>+0(SB)/8, $0x3ff8000000000000
DATA c15x4<>+8(SB)/8, $0x3ff8000000000000
DATA c15x4<>+16(SB)/8, $0x3ff8000000000000
DATA c15x4<>+24(SB)/8, $0x3ff8000000000000
GLOBL c15x4<>(SB), RODATA|NOPTR, $32

DATA negHalf4<>+0(SB)/8, $0xbfe0000000000000
DATA negHalf4<>+8(SB)/8, $0xbfe0000000000000
DATA negHalf4<>+16(SB)/8, $0xbfe0000000000000
DATA negHalf4<>+24(SB)/8, $0xbfe0000000000000
GLOBL negHalf4<>(SB), RODATA|NOPTR, $32

DATA c25x4<>+0(SB)/8, $0x4004000000000000
DATA c25x4<>+8(SB)/8, $0x4004000000000000
DATA c25x4<>+16(SB)/8, $0x4004000000000000
DATA c25x4<>+24(SB)/8, $0x4004000000000000
GLOBL c25x4<>(SB), RODATA|NOPTR, $32

// invSqrt's seed constant (rsqrtMagic) and range, 2^-1000 and 2^1000.
DATA magic4<>+0(SB)/8, $0x5fe6eb50c7b537a9
DATA magic4<>+8(SB)/8, $0x5fe6eb50c7b537a9
DATA magic4<>+16(SB)/8, $0x5fe6eb50c7b537a9
DATA magic4<>+24(SB)/8, $0x5fe6eb50c7b537a9
GLOBL magic4<>(SB), RODATA|NOPTR, $32

DATA lo4<>+0(SB)/8, $0x0170000000000000
DATA lo4<>+8(SB)/8, $0x0170000000000000
DATA lo4<>+16(SB)/8, $0x0170000000000000
DATA lo4<>+24(SB)/8, $0x0170000000000000
GLOBL lo4<>(SB), RODATA|NOPTR, $32

DATA hi4<>+0(SB)/8, $0x7e70000000000000
DATA hi4<>+8(SB)/8, $0x7e70000000000000
DATA hi4<>+16(SB)/8, $0x7e70000000000000
DATA hi4<>+24(SB)/8, $0x7e70000000000000
GLOBL hi4<>(SB), RODATA|NOPTR, $32

// The probe's multiplier 1.0000000001 and addend 1e-9.
DATA probeC<>+0(SB)/8, $0x3ff000000006df38
GLOBL probeC<>(SB), RODATA|NOPTR, $8
DATA probeD<>+0(SB)/8, $0x3e112e0be826d695
GLOBL probeD<>(SB), RODATA|NOPTR, $8

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
//
// Y0-Y3 the targets and eps2, Y4-Y7 the sums, Y8-Y15 temporaries.
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
	VMOVAPD Y3, Y11
	VFMADD231PD Y8, Y8, Y11   // dx*dx + eps2
	VFMADD231PD Y9, Y9, Y11   // dy*dy + ...
	VFMADD231PD Y10, Y10, Y11 // r2 = dz*dz + ...
	VMULPD  negHalf4<>(SB), Y11, Y12 // h = -r2/2
	VPSRLQ  $1, Y11, Y13
	VMOVUPD magic4<>(SB), Y14
	VPSUBQ  Y13, Y14, Y13     // y = magic - bits(r2)>>1
	VMULPD  Y13, Y13, Y14
	VFMADD213PD c15x4<>(SB), Y12, Y14
	VMULPD  Y14, Y13, Y13     // y *= fma(h, y*y, 1.5)
	VMULPD  Y13, Y13, Y14
	VFMADD213PD c15x4<>(SB), Y12, Y14
	VMULPD  Y14, Y13, Y13
	VMULPD  Y13, Y13, Y14
	VFMADD213PD c15x4<>(SB), Y12, Y14
	VMULPD  Y14, Y13, Y13
	VMULPD  Y13, Y13, Y14
	VFMADD213PD c15x4<>(SB), Y12, Y14
	VMULPD  Y14, Y13, Y13     // rv
	VCMPPD  $0x19, lo4<>(SB), Y11, Y14
	VCMPPD  $0x15, hi4<>(SB), Y11, Y12
	VORPD   Y12, Y14, Y14     // lanes out of range
	VTESTPD Y14, Y14
	JNE     pp4fix
pp4rv:
	VMULPD  Y13, Y13, Y14     // rv*rv
	VMULPD  Y14, Y13, Y14     // rv*(rv*rv)
	VBROADCASTSD (R9)(DX*8), Y12
	VMULPD  Y14, Y12, Y14     // rin3 = sm*rv^3
	VFMADD231PD Y14, Y8, Y4   // ax += rin3*dx
	VFMADD231PD Y14, Y9, Y5   // ay += rin3*dy
	VFMADD231PD Y14, Y10, Y6  // az += rin3*dz
	VFNMADD231PD Y13, Y12, Y7 // p -= sm*rv
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
pp4fix:
	VSQRTPD Y11, Y12
	VMOVUPD one4<>(SB), Y11
	VDIVPD  Y12, Y11, Y12
	VBLENDVPD Y14, Y12, Y13, Y13 // rv = 1/sqrt(r2) where out of range
	JMP     pp4rv

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
	VMOVUPD 96(AX), Y3
	VFMADD231PD Y0, Y0, Y3
	VFMADD231PD Y1, Y1, Y3
	VFMADD231PD Y2, Y2, Y3 // r2
	VMULPD  negHalf4<>(SB), Y3, Y4 // h
	VPSRLQ  $1, Y3, Y5
	VMOVUPD magic4<>(SB), Y6
	VPSUBQ  Y5, Y6, Y5     // y
	VMULPD  Y5, Y5, Y6
	VFMADD213PD c15x4<>(SB), Y4, Y6
	VMULPD  Y6, Y5, Y5
	VMULPD  Y5, Y5, Y6
	VFMADD213PD c15x4<>(SB), Y4, Y6
	VMULPD  Y6, Y5, Y5
	VMULPD  Y5, Y5, Y6
	VFMADD213PD c15x4<>(SB), Y4, Y6
	VMULPD  Y6, Y5, Y5
	VMULPD  Y5, Y5, Y6
	VFMADD213PD c15x4<>(SB), Y4, Y6
	VMULPD  Y6, Y5, Y5     // rv
	VCMPPD  $0x19, lo4<>(SB), Y3, Y6
	VCMPPD  $0x15, hi4<>(SB), Y3, Y4
	VORPD   Y4, Y6, Y6
	VTESTPD Y6, Y6
	JNE     q4fix
q4rv:
	VMULPD  Y5, Y5, Y3     // rv2
	VMULPD  Y3, Y5, Y4     // rv3
	VMULPD  Y3, Y4, Y6     // rv5
	VBROADCASTSD (R8)(DX*8), Y7
	VMULPD  Y0, Y7, Y7     // qxx*da
	VBROADCASTSD (R11)(DX*8), Y8
	VFMADD231PD Y8, Y1, Y7 // + qxy*db
	VBROADCASTSD (R12)(DX*8), Y9
	VFMADD231PD Y9, Y2, Y7 // qdx = ... + qxz*dc
	VMULPD  Y0, Y8, Y8     // qxy*da
	VBROADCASTSD (R9)(DX*8), Y10
	VFMADD231PD Y10, Y1, Y8 // + qyy*db
	VBROADCASTSD (R13)(DX*8), Y10
	VFMADD231PD Y10, Y2, Y8 // qdy = ... + qyz*dc
	VMULPD  Y0, Y9, Y9     // qxz*da
	VFMADD231PD Y10, Y1, Y9 // + qyz*db
	VBROADCASTSD (R10)(DX*8), Y10
	VFMADD231PD Y10, Y2, Y9 // qdz = ... + qzz*dc
	VMULPD  Y7, Y0, Y10    // da*qdx
	VFMADD231PD Y8, Y1, Y10 // + db*qdy
	VFMADD231PD Y9, Y2, Y10 // dqd = ... + dc*qdz
	VBROADCASTSD (BX)(DX*8), Y11
	VMULPD  Y4, Y11, Y4    // cm*rv3
	VMULPD  Y3, Y6, Y3     // rv7 = rv5*rv2
	VMULPD  c25x4<>(SB), Y3, Y3 // 2.5*rv7
	VFMADD231PD Y3, Y10, Y4 // mc = dqd*2.5*rv7 + cm*rv3
	VFNMADD231PD Y6, Y7, Y12 // ax -= qdx*rv5
	VFMADD231PD Y4, Y0, Y12  // ax += mc*da
	VFNMADD231PD Y6, Y8, Y13 // ay -= qdy*rv5
	VFMADD231PD Y4, Y1, Y13  // ay += mc*db
	VFNMADD231PD Y6, Y9, Y14 // az -= qdz*rv5
	VFMADD231PD Y4, Y2, Y14  // az += mc*dc
	VMULPD  negHalf4<>(SB), Y6, Y6 // -rv5/2
	VFMADD231PD Y6, Y10, Y15 // p += dqd*(-rv5/2)
	VFNMADD231PD Y5, Y11, Y15 // p -= cm*rv
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
q4fix:
	VSQRTPD Y3, Y4
	VMOVUPD one4<>(SB), Y7
	VDIVPD  Y4, Y7, Y4
	VBLENDVPD Y6, Y4, Y5, Y5 // rv = 1/sqrt(r2) where out of range
	JMP     q4rv

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
	VFMADD213PD Y9, Y8, Y0
	VFMADD213PD Y9, Y8, Y1
	VFMADD213PD Y9, Y8, Y2
	VFMADD213PD Y9, Y8, Y3
	VFMADD213PD Y9, Y8, Y4
	VFMADD213PD Y9, Y8, Y5
	VFMADD213PD Y9, Y8, Y6
	VFMADD213PD Y9, Y8, Y7
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
// pp4 at eight lanes, two sources per iteration: the two are computed
// side by side and added to the sums one after the other, so each lane
// still sums in list order; an odd last source runs alone. K1-K4 hold
// the lanes out of range, two masks per source, and one such lane
// sends the pair out of line.
//
// Z0-Z3 the targets and eps2, Z4-Z7 the sums, Z8-Z14 the first
// source's temporaries and Z21-Z27 the second's, Z15-Z20 the constants
// (one, magic, -1/2, 3/2, 2^-1000, 2^1000).
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
	VPBROADCASTQ magic4<>(SB), Z16
	VBROADCASTSD negHalf4<>(SB), Z17
	VBROADCASTSD c15x4<>(SB), Z18
	VBROADCASTSD lo4<>(SB), Z19
	VBROADCASTSD hi4<>(SB), Z20
	VPXORQ  Z4, Z4, Z4 // ax
	VPXORQ  Z5, Z5, Z5 // ay
	VPXORQ  Z6, Z6, Z6 // az
	VPXORQ  Z7, Z7, Z7 // p
	LEAQ    -1(CX), R10 // a pair starts below n-1
	XORQ    DX, DX
	JMP     pp8test2
pp8loop2:
	VBROADCASTSD (SI)(DX*8), Z8
	VBROADCASTSD 8(SI)(DX*8), Z21
	VSUBPD  Z0, Z8, Z8 // dx = sx - xi
	VSUBPD  Z0, Z21, Z21
	VBROADCASTSD (DI)(DX*8), Z9
	VBROADCASTSD 8(DI)(DX*8), Z22
	VSUBPD  Z1, Z9, Z9 // dy
	VSUBPD  Z1, Z22, Z22
	VBROADCASTSD (R8)(DX*8), Z10
	VBROADCASTSD 8(R8)(DX*8), Z23
	VSUBPD  Z2, Z10, Z10 // dz
	VSUBPD  Z2, Z23, Z23
	VMOVAPD Z3, Z11
	VMOVAPD Z3, Z24
	VFMADD231PD Z8, Z8, Z11
	VFMADD231PD Z21, Z21, Z24
	VFMADD231PD Z9, Z9, Z11
	VFMADD231PD Z22, Z22, Z24
	VFMADD231PD Z10, Z10, Z11 // r2 = dz*dz + (dy*dy + (dx*dx + eps2))
	VFMADD231PD Z23, Z23, Z24
	VMULPD  Z17, Z11, Z13 // h = -r2/2
	VMULPD  Z17, Z24, Z26
	VPSRLQ  $1, Z11, Z12
	VPSRLQ  $1, Z24, Z25
	VPSUBQ  Z12, Z16, Z12 // y = magic - bits(r2)>>1
	VPSUBQ  Z25, Z16, Z25
	VMULPD  Z12, Z12, Z14
	VMULPD  Z25, Z25, Z27
	VFMADD213PD Z18, Z13, Z14
	VFMADD213PD Z18, Z26, Z27
	VMULPD  Z14, Z12, Z12 // y *= fma(h, y*y, 1.5), four times
	VMULPD  Z27, Z25, Z25
	VMULPD  Z12, Z12, Z14
	VMULPD  Z25, Z25, Z27
	VFMADD213PD Z18, Z13, Z14
	VFMADD213PD Z18, Z26, Z27
	VMULPD  Z14, Z12, Z12
	VMULPD  Z27, Z25, Z25
	VMULPD  Z12, Z12, Z14
	VMULPD  Z25, Z25, Z27
	VFMADD213PD Z18, Z13, Z14
	VFMADD213PD Z18, Z26, Z27
	VMULPD  Z14, Z12, Z12
	VMULPD  Z27, Z25, Z25
	VMULPD  Z12, Z12, Z14
	VMULPD  Z25, Z25, Z27
	VFMADD213PD Z18, Z13, Z14
	VFMADD213PD Z18, Z26, Z27
	VMULPD  Z14, Z12, Z12
	VMULPD  Z27, Z25, Z25
	VCMPPD  $0x19, Z19, Z11, K1 // r2 out of [2^-1000, 2^1000)
	VCMPPD  $0x19, Z19, Z24, K3
	VCMPPD  $0x15, Z20, Z11, K2
	VCMPPD  $0x15, Z20, Z24, K4
	KORW    K1, K2, K1
	KORW    K3, K4, K3
	KORTESTW K1, K3
	JNE     pp8fix2
pp8rv2:
	VMULPD  Z12, Z12, Z13 // rv*rv
	VMULPD  Z25, Z25, Z26
	VMULPD  Z13, Z12, Z13 // rv*(rv*rv)
	VMULPD  Z26, Z25, Z26
	VBROADCASTSD (R9)(DX*8), Z14
	VBROADCASTSD 8(R9)(DX*8), Z27
	VMULPD  Z13, Z14, Z13 // rin3 = sm*rv^3
	VMULPD  Z26, Z27, Z26
	VFMADD231PD Z13, Z8, Z4 // ax += rin3*dx
	VFMADD231PD Z26, Z21, Z4
	VFMADD231PD Z13, Z9, Z5 // ay
	VFMADD231PD Z26, Z22, Z5
	VFMADD231PD Z13, Z10, Z6 // az
	VFMADD231PD Z26, Z23, Z6
	VFNMADD231PD Z12, Z14, Z7 // p -= sm*rv
	VFNMADD231PD Z25, Z27, Z7
	ADDQ    $2, DX
pp8test2:
	CMPQ    DX, R10
	JLT     pp8loop2
	CMPQ    DX, CX
	JGE     pp8done
	VBROADCASTSD (SI)(DX*8), Z8 // the odd last source
	VSUBPD  Z0, Z8, Z8
	VBROADCASTSD (DI)(DX*8), Z9
	VSUBPD  Z1, Z9, Z9
	VBROADCASTSD (R8)(DX*8), Z10
	VSUBPD  Z2, Z10, Z10
	VMOVAPD Z3, Z11
	VFMADD231PD Z8, Z8, Z11
	VFMADD231PD Z9, Z9, Z11
	VFMADD231PD Z10, Z10, Z11
	VMULPD  Z17, Z11, Z13
	VPSRLQ  $1, Z11, Z12
	VPSUBQ  Z12, Z16, Z12
	VMULPD  Z12, Z12, Z14
	VFMADD213PD Z18, Z13, Z14
	VMULPD  Z14, Z12, Z12
	VMULPD  Z12, Z12, Z14
	VFMADD213PD Z18, Z13, Z14
	VMULPD  Z14, Z12, Z12
	VMULPD  Z12, Z12, Z14
	VFMADD213PD Z18, Z13, Z14
	VMULPD  Z14, Z12, Z12
	VMULPD  Z12, Z12, Z14
	VFMADD213PD Z18, Z13, Z14
	VMULPD  Z14, Z12, Z12
	VCMPPD  $0x19, Z19, Z11, K1
	VCMPPD  $0x15, Z20, Z11, K2
	KORTESTW K1, K2
	JNE     pp8fix1
pp8rv1:
	VMULPD  Z12, Z12, Z13
	VMULPD  Z13, Z12, Z13
	VBROADCASTSD (R9)(DX*8), Z14
	VMULPD  Z13, Z14, Z13
	VFMADD231PD Z13, Z8, Z4
	VFMADD231PD Z13, Z9, Z5
	VFMADD231PD Z13, Z10, Z6
	VFNMADD231PD Z12, Z14, Z7
pp8done:
	MOVQ    out+48(FP), AX
	VMOVUPD Z4, 0(AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, 128(AX)
	VMOVUPD Z7, 192(AX)
	VZEROUPPER
	RET
pp8fix2: // rv = 1/sqrt(r2) in the lanes out of range
	VSQRTPD Z11, Z13
	VDIVPD  Z13, Z15, Z13
	VMOVAPD Z13, K1, Z12
	VSQRTPD Z24, Z26
	VDIVPD  Z26, Z15, Z26
	VMOVAPD Z26, K3, Z25
	JMP     pp8rv2
pp8fix1:
	KORW    K1, K2, K1
	VSQRTPD Z11, Z13
	VDIVPD  Z13, Z15, Z13
	VMOVAPD Z13, K1, Z12
	JMP     pp8rv1

// func m2pQuad8(tg *laneBlock8, cols *[10]*float64, n int, out *laneSums8)
//
// m2pQuad4 at eight lanes, two cells per iteration like pp8 (an odd
// last cell alone), each lane still summing in list order. The ten
// columns are read as embedded broadcasts, the constants too but
// magic, so the two cells' temporaries fit beside the targets and
// sums: Z0-Z10 the first cell's, Z11-Z21 the second's, Z22-Z25 the
// sums, Z26-Z29 the targets and eps2, Z30 magic. K1-K4 hold the lanes
// out of range, two masks per cell; AX, free once the block is loaded,
// is n-1.
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
	VMOVUPD 0(AX), Z26   // xi
	VMOVUPD 64(AX), Z27  // yi
	VMOVUPD 128(AX), Z28 // zi
	VMOVUPD 192(AX), Z29 // eps2
	VPBROADCASTQ magic4<>(SB), Z30
	VPXORQ Z22, Z22, Z22 // ax
	VPXORQ Z23, Z23, Z23 // ay
	VPXORQ Z24, Z24, Z24 // az
	VPXORQ Z25, Z25, Z25 // p
	MOVQ   n+16(FP), AX
	DECQ   AX // a pair starts below n-1
	XORQ   DX, DX
	JMP    q8test2
q8loop2:
	VBROADCASTSD (CX)(DX*8), Z0
	VBROADCASTSD 8(CX)(DX*8), Z11
	VSUBPD  Z26, Z0, Z0 // da = cx - xi (first cell; the second interleaved)
	VSUBPD  Z26, Z11, Z11
	VBROADCASTSD (SI)(DX*8), Z1
	VBROADCASTSD 8(SI)(DX*8), Z12
	VSUBPD  Z27, Z1, Z1 // db
	VSUBPD  Z27, Z12, Z12
	VBROADCASTSD (DI)(DX*8), Z2
	VBROADCASTSD 8(DI)(DX*8), Z13
	VSUBPD  Z28, Z2, Z2 // dc
	VSUBPD  Z28, Z13, Z13
	VMOVAPD Z29, Z3
	VMOVAPD Z29, Z14
	VFMADD231PD Z0, Z0, Z3
	VFMADD231PD Z11, Z11, Z14
	VFMADD231PD Z1, Z1, Z3
	VFMADD231PD Z12, Z12, Z14
	VFMADD231PD Z2, Z2, Z3 // r2 = dc*dc + (db*db + (da*da + eps2))
	VFMADD231PD Z13, Z13, Z14
	VMULPD.BCST negHalf4<>(SB), Z3, Z5 // h = -r2/2
	VMULPD.BCST negHalf4<>(SB), Z14, Z16
	VPSRLQ  $1, Z3, Z4
	VPSRLQ  $1, Z14, Z15
	VPSUBQ  Z4, Z30, Z4 // y = magic - bits(r2)>>1
	VPSUBQ  Z15, Z30, Z15
	VMULPD  Z4, Z4, Z6
	VMULPD  Z15, Z15, Z17
	VFMADD213PD.BCST c15x4<>(SB), Z5, Z6
	VFMADD213PD.BCST c15x4<>(SB), Z16, Z17
	VMULPD  Z6, Z4, Z4 // y *= fma(h, y*y, 1.5), four times
	VMULPD  Z17, Z15, Z15
	VMULPD  Z4, Z4, Z6
	VMULPD  Z15, Z15, Z17
	VFMADD213PD.BCST c15x4<>(SB), Z5, Z6
	VFMADD213PD.BCST c15x4<>(SB), Z16, Z17
	VMULPD  Z6, Z4, Z4
	VMULPD  Z17, Z15, Z15
	VMULPD  Z4, Z4, Z6
	VMULPD  Z15, Z15, Z17
	VFMADD213PD.BCST c15x4<>(SB), Z5, Z6
	VFMADD213PD.BCST c15x4<>(SB), Z16, Z17
	VMULPD  Z6, Z4, Z4
	VMULPD  Z17, Z15, Z15
	VMULPD  Z4, Z4, Z6
	VMULPD  Z15, Z15, Z17
	VFMADD213PD.BCST c15x4<>(SB), Z5, Z6
	VFMADD213PD.BCST c15x4<>(SB), Z16, Z17
	VMULPD  Z6, Z4, Z4
	VMULPD  Z17, Z15, Z15
	VCMPPD.BCST $0x19, lo4<>(SB), Z3, K1 // r2 out of [2^-1000, 2^1000)
	VCMPPD.BCST $0x19, lo4<>(SB), Z14, K3
	VCMPPD.BCST $0x15, hi4<>(SB), Z3, K2
	VCMPPD.BCST $0x15, hi4<>(SB), Z14, K4
	KORW    K1, K2, K1
	KORW    K3, K4, K3
	KORTESTW K1, K3
	JNE     q8fix2
q8rv2:
	VMULPD  Z4, Z4, Z3 // rv2
	VMULPD  Z15, Z15, Z14
	VMULPD  Z3, Z4, Z5 // rv3
	VMULPD  Z14, Z15, Z16
	VMULPD  Z3, Z5, Z6 // rv5
	VMULPD  Z14, Z16, Z17
	VMULPD.BCST (R8)(DX*8), Z0, Z7 // qxx*da
	VMULPD.BCST 8(R8)(DX*8), Z11, Z18
	VFMADD231PD.BCST (R11)(DX*8), Z1, Z7 // + qxy*db
	VFMADD231PD.BCST 8(R11)(DX*8), Z12, Z18
	VFMADD231PD.BCST (R12)(DX*8), Z2, Z7 // qdx = ... + qxz*dc
	VFMADD231PD.BCST 8(R12)(DX*8), Z13, Z18
	VMULPD.BCST (R11)(DX*8), Z0, Z8 // qxy*da
	VMULPD.BCST 8(R11)(DX*8), Z11, Z19
	VFMADD231PD.BCST (R9)(DX*8), Z1, Z8 // + qyy*db
	VFMADD231PD.BCST 8(R9)(DX*8), Z12, Z19
	VFMADD231PD.BCST (R13)(DX*8), Z2, Z8 // qdy = ... + qyz*dc
	VFMADD231PD.BCST 8(R13)(DX*8), Z13, Z19
	VMULPD.BCST (R12)(DX*8), Z0, Z9 // qxz*da
	VMULPD.BCST 8(R12)(DX*8), Z11, Z20
	VFMADD231PD.BCST (R13)(DX*8), Z1, Z9 // + qyz*db
	VFMADD231PD.BCST 8(R13)(DX*8), Z12, Z20
	VFMADD231PD.BCST (R10)(DX*8), Z2, Z9 // qdz = ... + qzz*dc
	VFMADD231PD.BCST 8(R10)(DX*8), Z13, Z20
	VMULPD  Z7, Z0, Z10 // da*qdx
	VMULPD  Z18, Z11, Z21
	VFMADD231PD Z8, Z1, Z10 // + db*qdy
	VFMADD231PD Z19, Z12, Z21
	VFMADD231PD Z9, Z2, Z10 // dqd = ... + dc*qdz
	VFMADD231PD Z20, Z13, Z21
	VMULPD.BCST (BX)(DX*8), Z5, Z5 // mono = cm*rv3
	VMULPD.BCST 8(BX)(DX*8), Z16, Z16
	VMULPD  Z6, Z3, Z3 // rv7 = rv5*rv2
	VMULPD  Z17, Z14, Z14
	VMULPD.BCST c25x4<>(SB), Z3, Z3 // 2.5*rv7
	VMULPD.BCST c25x4<>(SB), Z14, Z14
	VFMADD231PD Z3, Z10, Z5 // mc = dqd*2.5*rv7 + mono
	VFMADD231PD Z14, Z21, Z16
	VFNMADD231PD Z6, Z7, Z22 // ax -= qdx*rv5, ax += mc*da: the first cell, then the second
	VFMADD231PD Z5, Z0, Z22
	VFNMADD231PD Z17, Z18, Z22
	VFMADD231PD Z16, Z11, Z22
	VFNMADD231PD Z6, Z8, Z23 // ay
	VFMADD231PD Z5, Z1, Z23
	VFNMADD231PD Z17, Z19, Z23
	VFMADD231PD Z16, Z12, Z23
	VFNMADD231PD Z6, Z9, Z24 // az
	VFMADD231PD Z5, Z2, Z24
	VFNMADD231PD Z17, Z20, Z24
	VFMADD231PD Z16, Z13, Z24
	VMULPD.BCST negHalf4<>(SB), Z6, Z6 // -rv5/2, p += dqd*(-rv5/2), p -= cm*rv
	VFMADD231PD Z6, Z10, Z25
	VFNMADD231PD.BCST (BX)(DX*8), Z4, Z25
	VMULPD.BCST negHalf4<>(SB), Z17, Z17
	VFMADD231PD Z17, Z21, Z25
	VFNMADD231PD.BCST 8(BX)(DX*8), Z15, Z25
	ADDQ    $2, DX
q8test2:
	CMPQ    DX, AX
	JLT     q8loop2
	CMPQ    DX, n+16(FP)
	JGE     q8done
	VBROADCASTSD (CX)(DX*8), Z0 // the odd last cell
	VSUBPD  Z26, Z0, Z0
	VBROADCASTSD (SI)(DX*8), Z1
	VSUBPD  Z27, Z1, Z1
	VBROADCASTSD (DI)(DX*8), Z2
	VSUBPD  Z28, Z2, Z2
	VMOVAPD Z29, Z3
	VFMADD231PD Z0, Z0, Z3
	VFMADD231PD Z1, Z1, Z3
	VFMADD231PD Z2, Z2, Z3
	VMULPD.BCST negHalf4<>(SB), Z3, Z5
	VPSRLQ  $1, Z3, Z4
	VPSUBQ  Z4, Z30, Z4
	VMULPD  Z4, Z4, Z6
	VFMADD213PD.BCST c15x4<>(SB), Z5, Z6
	VMULPD  Z6, Z4, Z4
	VMULPD  Z4, Z4, Z6
	VFMADD213PD.BCST c15x4<>(SB), Z5, Z6
	VMULPD  Z6, Z4, Z4
	VMULPD  Z4, Z4, Z6
	VFMADD213PD.BCST c15x4<>(SB), Z5, Z6
	VMULPD  Z6, Z4, Z4
	VMULPD  Z4, Z4, Z6
	VFMADD213PD.BCST c15x4<>(SB), Z5, Z6
	VMULPD  Z6, Z4, Z4
	VCMPPD.BCST $0x19, lo4<>(SB), Z3, K1
	VCMPPD.BCST $0x15, hi4<>(SB), Z3, K2
	KORTESTW K1, K2
	JNE     q8fix1
q8rv1:
	VMULPD  Z4, Z4, Z3
	VMULPD  Z3, Z4, Z5
	VMULPD  Z3, Z5, Z6
	VMULPD.BCST (R8)(DX*8), Z0, Z7
	VFMADD231PD.BCST (R11)(DX*8), Z1, Z7
	VFMADD231PD.BCST (R12)(DX*8), Z2, Z7
	VMULPD.BCST (R11)(DX*8), Z0, Z8
	VFMADD231PD.BCST (R9)(DX*8), Z1, Z8
	VFMADD231PD.BCST (R13)(DX*8), Z2, Z8
	VMULPD.BCST (R12)(DX*8), Z0, Z9
	VFMADD231PD.BCST (R13)(DX*8), Z1, Z9
	VFMADD231PD.BCST (R10)(DX*8), Z2, Z9
	VMULPD  Z7, Z0, Z10
	VFMADD231PD Z8, Z1, Z10
	VFMADD231PD Z9, Z2, Z10
	VMULPD.BCST (BX)(DX*8), Z5, Z5
	VMULPD  Z6, Z3, Z3
	VMULPD.BCST c25x4<>(SB), Z3, Z3
	VFMADD231PD Z3, Z10, Z5
	VFNMADD231PD Z6, Z7, Z22
	VFMADD231PD Z5, Z0, Z22
	VFNMADD231PD Z6, Z8, Z23
	VFMADD231PD Z5, Z1, Z23
	VFNMADD231PD Z6, Z9, Z24
	VFMADD231PD Z5, Z2, Z24
	VMULPD.BCST negHalf4<>(SB), Z6, Z6
	VFMADD231PD Z6, Z10, Z25
	VFNMADD231PD.BCST (BX)(DX*8), Z4, Z25
q8done:
	MOVQ    out+24(FP), AX
	VMOVUPD Z22, 0(AX)
	VMOVUPD Z23, 64(AX)
	VMOVUPD Z24, 128(AX)
	VMOVUPD Z25, 192(AX)
	VZEROUPPER
	RET
q8fix2: // rv = 1/sqrt(r2) in the lanes out of range
	VSQRTPD Z3, Z5
	VBROADCASTSD one4<>(SB), Z6
	VDIVPD  Z5, Z6, Z5
	VMOVAPD Z5, K1, Z4
	VSQRTPD Z14, Z16
	VBROADCASTSD one4<>(SB), Z17
	VDIVPD  Z16, Z17, Z16
	VMOVAPD Z16, K3, Z15
	JMP     q8rv2
q8fix1:
	KORW    K1, K2, K1
	VSQRTPD Z3, Z5
	VBROADCASTSD one4<>(SB), Z6
	VDIVPD  Z5, Z6, Z5
	VMOVAPD Z5, K1, Z4
	JMP     q8rv1

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
	VFMADD213PD Z9, Z8, Z0
	VFMADD213PD Z9, Z8, Z1
	VFMADD213PD Z9, Z8, Z2
	VFMADD213PD Z9, Z8, Z3
	VFMADD213PD Z9, Z8, Z4
	VFMADD213PD Z9, Z8, Z5
	VFMADD213PD Z9, Z8, Z6
	VFMADD213PD Z9, Z8, Z7
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
