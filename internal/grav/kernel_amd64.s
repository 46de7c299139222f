// SIMD forms of the float32 loops in kernel.go: eight targets in the
// eight lanes of a YMM register (AVX2 and FMA: pp8, m2pQuad8) or
// sixteen in the sixteen lanes of a ZMM register (AVX-512F: pp16,
// m2pQuad16), each source broadcast to all of them. Only lane-wise
// subtracts, multiplies, fused multiply-adds and the integer seed of
// invSqrt32 touch the values, in the order, association and fusion the
// Go loops write, with no sum across lanes -- each lane is the scalar
// loop, bit for bit. A fused multiply-add rounds once wherever it
// stands (fma32 in Go), so it is as portable between the two as a
// multiply. A kernel call sweeps the sources [lo, hi) from zero sums;
// the caller folds them into float64 (kernel_amd64.go).
//
// The reciprocal square root is invSqrt32's: y = magic - bits(r2)>>1
// and three Newton steps y *= fma(-r2/2, y*y, 1.5). Two compares per
// source find lanes whose r2 lies outside [2^-100, 2^100) -- zero,
// subnormal, huge, negative, Inf or NaN -- and such a vector branches
// out of line, where VSQRTPS and VDIVPS give those lanes 1/sqrt(r2)
// and a blend keeps the Newton value in the others.
//
// Operand order is Go's: OP b, a, dst is dst = a OP b; VFMADD231PS c,
// b, a is a = b*c + a, VFNMADD231PS c, b, a is a = a - b*c and
// VFMADD213PS c, b, a is a = b*a + c (a .BCST operand is one float
// broadcast from memory); VCMPPS $p, b, a, K is K = a p b, with
// predicates 0x19 "not >=" and 0x15 "not <", both true on NaN;
// VBLENDVPS m, x, y, dst is dst = m ? x : y.
// R14 (g) and R15 (clobbered by dynamic linking) are never used.

#include "textflag.h"

DATA one8<>+0(SB)/4, $0x3f800000
DATA one8<>+4(SB)/4, $0x3f800000
DATA one8<>+8(SB)/4, $0x3f800000
DATA one8<>+12(SB)/4, $0x3f800000
DATA one8<>+16(SB)/4, $0x3f800000
DATA one8<>+20(SB)/4, $0x3f800000
DATA one8<>+24(SB)/4, $0x3f800000
DATA one8<>+28(SB)/4, $0x3f800000
GLOBL one8<>(SB), RODATA|NOPTR, $32

DATA c15x8<>+0(SB)/4, $0x3fc00000
DATA c15x8<>+4(SB)/4, $0x3fc00000
DATA c15x8<>+8(SB)/4, $0x3fc00000
DATA c15x8<>+12(SB)/4, $0x3fc00000
DATA c15x8<>+16(SB)/4, $0x3fc00000
DATA c15x8<>+20(SB)/4, $0x3fc00000
DATA c15x8<>+24(SB)/4, $0x3fc00000
DATA c15x8<>+28(SB)/4, $0x3fc00000
GLOBL c15x8<>(SB), RODATA|NOPTR, $32

DATA negHalf8<>+0(SB)/4, $0xbf000000
DATA negHalf8<>+4(SB)/4, $0xbf000000
DATA negHalf8<>+8(SB)/4, $0xbf000000
DATA negHalf8<>+12(SB)/4, $0xbf000000
DATA negHalf8<>+16(SB)/4, $0xbf000000
DATA negHalf8<>+20(SB)/4, $0xbf000000
DATA negHalf8<>+24(SB)/4, $0xbf000000
DATA negHalf8<>+28(SB)/4, $0xbf000000
GLOBL negHalf8<>(SB), RODATA|NOPTR, $32

DATA c25x8<>+0(SB)/4, $0x40200000
DATA c25x8<>+4(SB)/4, $0x40200000
DATA c25x8<>+8(SB)/4, $0x40200000
DATA c25x8<>+12(SB)/4, $0x40200000
DATA c25x8<>+16(SB)/4, $0x40200000
DATA c25x8<>+20(SB)/4, $0x40200000
DATA c25x8<>+24(SB)/4, $0x40200000
DATA c25x8<>+28(SB)/4, $0x40200000
GLOBL c25x8<>(SB), RODATA|NOPTR, $32

// invSqrt32's seed constant (rsqrt32Magic) and range, 2^-100 and 2^100.
DATA magic8<>+0(SB)/4, $0x5f3759df
DATA magic8<>+4(SB)/4, $0x5f3759df
DATA magic8<>+8(SB)/4, $0x5f3759df
DATA magic8<>+12(SB)/4, $0x5f3759df
DATA magic8<>+16(SB)/4, $0x5f3759df
DATA magic8<>+20(SB)/4, $0x5f3759df
DATA magic8<>+24(SB)/4, $0x5f3759df
DATA magic8<>+28(SB)/4, $0x5f3759df
GLOBL magic8<>(SB), RODATA|NOPTR, $32

DATA lo8<>+0(SB)/4, $0x0d800000
DATA lo8<>+4(SB)/4, $0x0d800000
DATA lo8<>+8(SB)/4, $0x0d800000
DATA lo8<>+12(SB)/4, $0x0d800000
DATA lo8<>+16(SB)/4, $0x0d800000
DATA lo8<>+20(SB)/4, $0x0d800000
DATA lo8<>+24(SB)/4, $0x0d800000
DATA lo8<>+28(SB)/4, $0x0d800000
GLOBL lo8<>(SB), RODATA|NOPTR, $32

DATA hi8<>+0(SB)/4, $0x71800000
DATA hi8<>+4(SB)/4, $0x71800000
DATA hi8<>+8(SB)/4, $0x71800000
DATA hi8<>+12(SB)/4, $0x71800000
DATA hi8<>+16(SB)/4, $0x71800000
DATA hi8<>+20(SB)/4, $0x71800000
DATA hi8<>+24(SB)/4, $0x71800000
DATA hi8<>+28(SB)/4, $0x71800000
GLOBL hi8<>(SB), RODATA|NOPTR, $32

// The probe's multiplier 0.999 and addend 1e-3.
DATA probeC<>+0(SB)/4, $0x3f7fbe77
GLOBL probeC<>(SB), RODATA|NOPTR, $4
DATA probeD<>+0(SB)/4, $0x3a83126f
GLOBL probeD<>(SB), RODATA|NOPTR, $4

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

// func pp8(tg *laneBlock8, sx, sy, sz, sm *float32, lo, hi int, out *laneSums8)
//
// Y0-Y3 the targets and eps2, Y4-Y7 the sums, Y8-Y15 temporaries.
TEXT ·pp8(SB), NOSPLIT, $0-64
	MOVQ tg+0(FP), AX
	MOVQ sx+8(FP), SI
	MOVQ sy+16(FP), DI
	MOVQ sz+24(FP), R8
	MOVQ sm+32(FP), R9
	MOVQ lo+40(FP), DX
	MOVQ hi+48(FP), CX
	VMOVUPS 0(AX), Y0  // xi
	VMOVUPS 32(AX), Y1 // yi
	VMOVUPS 64(AX), Y2 // zi
	VMOVUPS 96(AX), Y3 // eps2
	VXORPS  Y4, Y4, Y4 // ax
	VXORPS  Y5, Y5, Y5 // ay
	VXORPS  Y6, Y6, Y6 // az
	VXORPS  Y7, Y7, Y7 // p
	JMP     pptest
pploop:
	VBROADCASTSS (SI)(DX*4), Y8
	VSUBPS  Y0, Y8, Y8    // dx = sx - xi
	VBROADCASTSS (DI)(DX*4), Y9
	VSUBPS  Y1, Y9, Y9    // dy
	VBROADCASTSS (R8)(DX*4), Y10
	VSUBPS  Y2, Y10, Y10  // dz
	VMOVAPS Y3, Y11
	VFMADD231PS Y8, Y8, Y11   // dx*dx + eps2
	VFMADD231PS Y9, Y9, Y11   // dy*dy + ...
	VFMADD231PS Y10, Y10, Y11 // r2 = dz*dz + ...
	VMULPS  negHalf8<>(SB), Y11, Y12 // h = -r2/2
	VPSRLD  $1, Y11, Y13
	VMOVUPS magic8<>(SB), Y14
	VPSUBD  Y13, Y14, Y13     // y = magic - bits(r2)>>1
	VMULPS  Y13, Y13, Y14
	VFMADD213PS c15x8<>(SB), Y12, Y14
	VMULPS  Y14, Y13, Y13     // y *= fma(h, y*y, 1.5)
	VMULPS  Y13, Y13, Y14
	VFMADD213PS c15x8<>(SB), Y12, Y14
	VMULPS  Y14, Y13, Y13
	VMULPS  Y13, Y13, Y14
	VFMADD213PS c15x8<>(SB), Y12, Y14
	VMULPS  Y14, Y13, Y13     // rv
	VCMPPS  $0x19, lo8<>(SB), Y11, Y14
	VCMPPS  $0x15, hi8<>(SB), Y11, Y12
	VORPS   Y12, Y14, Y14     // lanes out of range
	VTESTPS Y14, Y14
	JNE     pp8fix
pp8rv:
	VMULPS  Y13, Y13, Y14     // rv*rv
	VMULPS  Y14, Y13, Y14     // rv*(rv*rv)
	VBROADCASTSS (R9)(DX*4), Y12
	VMULPS  Y14, Y12, Y14     // rin3 = sm*rv^3
	VFMADD231PS Y14, Y8, Y4   // ax += rin3*dx
	VFMADD231PS Y14, Y9, Y5   // ay += rin3*dy
	VFMADD231PS Y14, Y10, Y6  // az += rin3*dz
	VFNMADD231PS Y13, Y12, Y7 // p -= sm*rv
	INCQ    DX
pptest:
	CMPQ    DX, CX
	JLT     pploop
	MOVQ    out+56(FP), AX
	VMOVUPS Y4, 0(AX)
	VMOVUPS Y5, 32(AX)
	VMOVUPS Y6, 64(AX)
	VMOVUPS Y7, 96(AX)
	VZEROUPPER
	RET
pp8fix:
	VSQRTPS Y11, Y12
	VMOVUPS one8<>(SB), Y11
	VDIVPS  Y12, Y11, Y12
	VBLENDVPS Y14, Y12, Y13, Y13 // rv = 1/sqrt(r2) where out of range
	JMP     pp8rv

// func m2pQuad8(tg *laneBlock8, cols *[10]*float32, lo, hi int, out *laneSums8)
//
// Twelve general registers carry the block, the ten columns and the
// index, so the targets and eps2 are read from the block as memory
// operands and the constants from read-only data; Y0-Y11 are
// temporaries, Y12-Y15 the sums.
TEXT ·m2pQuad8(SB), NOSPLIT, $0-40
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
	VXORPS Y12, Y12, Y12 // ax
	VXORPS Y13, Y13, Y13 // ay
	VXORPS Y14, Y14, Y14 // az
	VXORPS Y15, Y15, Y15 // p
	MOVQ   lo+16(FP), DX
	JMP    qtest
qloop:
	VBROADCASTSS (CX)(DX*4), Y0
	VSUBPS  0(AX), Y0, Y0  // da = cx - xi
	VBROADCASTSS (SI)(DX*4), Y1
	VSUBPS  32(AX), Y1, Y1 // db
	VBROADCASTSS (DI)(DX*4), Y2
	VSUBPS  64(AX), Y2, Y2 // dc
	VMOVUPS 96(AX), Y3
	VFMADD231PS Y0, Y0, Y3
	VFMADD231PS Y1, Y1, Y3
	VFMADD231PS Y2, Y2, Y3 // r2
	VMULPS  negHalf8<>(SB), Y3, Y4 // h
	VPSRLD  $1, Y3, Y5
	VMOVUPS magic8<>(SB), Y6
	VPSUBD  Y5, Y6, Y5     // y
	VMULPS  Y5, Y5, Y6
	VFMADD213PS c15x8<>(SB), Y4, Y6
	VMULPS  Y6, Y5, Y5
	VMULPS  Y5, Y5, Y6
	VFMADD213PS c15x8<>(SB), Y4, Y6
	VMULPS  Y6, Y5, Y5
	VMULPS  Y5, Y5, Y6
	VFMADD213PS c15x8<>(SB), Y4, Y6
	VMULPS  Y6, Y5, Y5     // rv
	VCMPPS  $0x19, lo8<>(SB), Y3, Y6
	VCMPPS  $0x15, hi8<>(SB), Y3, Y4
	VORPS   Y4, Y6, Y6
	VTESTPS Y6, Y6
	JNE     q8fix
q8rv:
	VMULPS  Y5, Y5, Y3     // rv2
	VMULPS  Y3, Y5, Y4     // rv3
	VMULPS  Y3, Y4, Y6     // rv5
	VBROADCASTSS (R8)(DX*4), Y7
	VMULPS  Y0, Y7, Y7     // qxx*da
	VBROADCASTSS (R11)(DX*4), Y8
	VFMADD231PS Y8, Y1, Y7 // + qxy*db
	VBROADCASTSS (R12)(DX*4), Y9
	VFMADD231PS Y9, Y2, Y7 // qdx = ... + qxz*dc
	VMULPS  Y0, Y8, Y8     // qxy*da
	VBROADCASTSS (R9)(DX*4), Y10
	VFMADD231PS Y10, Y1, Y8 // + qyy*db
	VBROADCASTSS (R13)(DX*4), Y10
	VFMADD231PS Y10, Y2, Y8 // qdy = ... + qyz*dc
	VMULPS  Y0, Y9, Y9     // qxz*da
	VFMADD231PS Y10, Y1, Y9 // + qyz*db
	VBROADCASTSS (R10)(DX*4), Y10
	VFMADD231PS Y10, Y2, Y9 // qdz = ... + qzz*dc
	VMULPS  Y7, Y0, Y10    // da*qdx
	VFMADD231PS Y8, Y1, Y10 // + db*qdy
	VFMADD231PS Y9, Y2, Y10 // dqd = ... + dc*qdz
	VBROADCASTSS (BX)(DX*4), Y11
	VMULPS  Y4, Y11, Y4    // cm*rv3
	VMULPS  Y3, Y6, Y3     // rv7 = rv5*rv2
	VMULPS  c25x8<>(SB), Y3, Y3 // 2.5*rv7
	VFMADD231PS Y3, Y10, Y4 // mc = dqd*2.5*rv7 + cm*rv3
	VFNMADD231PS Y6, Y7, Y12 // ax -= qdx*rv5
	VFMADD231PS Y4, Y0, Y12  // ax += mc*da
	VFNMADD231PS Y6, Y8, Y13 // ay -= qdy*rv5
	VFMADD231PS Y4, Y1, Y13  // ay += mc*db
	VFNMADD231PS Y6, Y9, Y14 // az -= qdz*rv5
	VFMADD231PS Y4, Y2, Y14  // az += mc*dc
	VMULPS  negHalf8<>(SB), Y6, Y6 // -rv5/2
	VFMADD231PS Y6, Y10, Y15 // p += dqd*(-rv5/2)
	VFNMADD231PS Y5, Y11, Y15 // p -= cm*rv
	INCQ    DX
qtest:
	CMPQ    DX, hi+24(FP)
	JLT     qloop
	MOVQ    out+32(FP), AX
	VMOVUPS Y12, 0(AX)
	VMOVUPS Y13, 32(AX)
	VMOVUPS Y14, 64(AX)
	VMOVUPS Y15, 96(AX)
	VZEROUPPER
	RET
q8fix:
	VSQRTPS Y3, Y4
	VMOVUPS one8<>(SB), Y7
	VDIVPS  Y4, Y7, Y4
	VBLENDVPS Y6, Y4, Y5, Y5 // rv = 1/sqrt(r2) where out of range
	JMP     q8rv

// func mulAdd8(n int, out *[8]float32)
TEXT ·mulAdd8(SB), NOSPLIT, $0-16
	MOVQ n+0(FP), CX
	VBROADCASTSS probeC<>(SB), Y8
	VBROADCASTSS probeD<>(SB), Y9
	VMOVUPS one8<>(SB), Y0
	VMOVUPS Y0, Y1
	VMOVUPS Y0, Y2
	VMOVUPS Y0, Y3
	VMOVUPS Y0, Y4
	VMOVUPS Y0, Y5
	VMOVUPS Y0, Y6
	VMOVUPS Y0, Y7
	JMP     matest
maloop:
	VFMADD213PS Y9, Y8, Y0
	VFMADD213PS Y9, Y8, Y1
	VFMADD213PS Y9, Y8, Y2
	VFMADD213PS Y9, Y8, Y3
	VFMADD213PS Y9, Y8, Y4
	VFMADD213PS Y9, Y8, Y5
	VFMADD213PS Y9, Y8, Y6
	VFMADD213PS Y9, Y8, Y7
	DECQ   CX
matest:
	TESTQ  CX, CX
	JGT    maloop
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y2, Y0, Y0
	VADDPS Y6, Y4, Y4
	VADDPS Y4, Y0, Y0
	MOVQ   out+8(FP), AX
	VMOVUPS Y0, 0(AX)
	VZEROUPPER
	RET

// func pp16(tg *laneBlock16, sx, sy, sz, sm *float32, lo, hi int, out *laneSums16)
//
// pp8 at sixteen lanes, two sources per iteration: the two are computed
// side by side and added to the sums one after the other, so each lane
// still sums in list order; an odd last source runs alone. K1-K4 hold
// the lanes out of range, two masks per source, and one such lane
// sends the pair out of line.
//
// Z0-Z3 the targets and eps2, Z4-Z7 the sums, Z8-Z14 the first
// source's temporaries and Z21-Z27 the second's, Z15-Z20 the constants
// (one, magic, -1/2, 3/2, 2^-100, 2^100).
TEXT ·pp16(SB), NOSPLIT, $0-64
	MOVQ tg+0(FP), AX
	MOVQ sx+8(FP), SI
	MOVQ sy+16(FP), DI
	MOVQ sz+24(FP), R8
	MOVQ sm+32(FP), R9
	MOVQ lo+40(FP), DX
	MOVQ hi+48(FP), CX
	VMOVUPS 0(AX), Z0   // xi
	VMOVUPS 64(AX), Z1  // yi
	VMOVUPS 128(AX), Z2 // zi
	VMOVUPS 192(AX), Z3 // eps2
	VBROADCASTSS one8<>(SB), Z15
	VPBROADCASTD magic8<>(SB), Z16
	VBROADCASTSS negHalf8<>(SB), Z17
	VBROADCASTSS c15x8<>(SB), Z18
	VBROADCASTSS lo8<>(SB), Z19
	VBROADCASTSS hi8<>(SB), Z20
	VPXORD  Z4, Z4, Z4 // ax
	VPXORD  Z5, Z5, Z5 // ay
	VPXORD  Z6, Z6, Z6 // az
	VPXORD  Z7, Z7, Z7 // p
	LEAQ    -1(CX), R10 // a pair starts below hi-1
	JMP     pp16test2
pp16loop2:
	VBROADCASTSS (SI)(DX*4), Z8
	VBROADCASTSS 4(SI)(DX*4), Z21
	VSUBPS  Z0, Z8, Z8 // dx = sx - xi
	VSUBPS  Z0, Z21, Z21
	VBROADCASTSS (DI)(DX*4), Z9
	VBROADCASTSS 4(DI)(DX*4), Z22
	VSUBPS  Z1, Z9, Z9 // dy
	VSUBPS  Z1, Z22, Z22
	VBROADCASTSS (R8)(DX*4), Z10
	VBROADCASTSS 4(R8)(DX*4), Z23
	VSUBPS  Z2, Z10, Z10 // dz
	VSUBPS  Z2, Z23, Z23
	VMOVAPS Z3, Z11
	VMOVAPS Z3, Z24
	VFMADD231PS Z8, Z8, Z11
	VFMADD231PS Z21, Z21, Z24
	VFMADD231PS Z9, Z9, Z11
	VFMADD231PS Z22, Z22, Z24
	VFMADD231PS Z10, Z10, Z11 // r2 = dz*dz + (dy*dy + (dx*dx + eps2))
	VFMADD231PS Z23, Z23, Z24
	VMULPS  Z17, Z11, Z13 // h = -r2/2
	VMULPS  Z17, Z24, Z26
	VPSRLD  $1, Z11, Z12
	VPSRLD  $1, Z24, Z25
	VPSUBD  Z12, Z16, Z12 // y = magic - bits(r2)>>1
	VPSUBD  Z25, Z16, Z25
	VMULPS  Z12, Z12, Z14
	VMULPS  Z25, Z25, Z27
	VFMADD213PS Z18, Z13, Z14
	VFMADD213PS Z18, Z26, Z27
	VMULPS  Z14, Z12, Z12 // y *= fma(h, y*y, 1.5), three times
	VMULPS  Z27, Z25, Z25
	VMULPS  Z12, Z12, Z14
	VMULPS  Z25, Z25, Z27
	VFMADD213PS Z18, Z13, Z14
	VFMADD213PS Z18, Z26, Z27
	VMULPS  Z14, Z12, Z12
	VMULPS  Z27, Z25, Z25
	VMULPS  Z12, Z12, Z14
	VMULPS  Z25, Z25, Z27
	VFMADD213PS Z18, Z13, Z14
	VFMADD213PS Z18, Z26, Z27
	VMULPS  Z14, Z12, Z12
	VMULPS  Z27, Z25, Z25
	VCMPPS  $0x19, Z19, Z11, K1 // r2 out of [2^-100, 2^100)
	VCMPPS  $0x19, Z19, Z24, K3
	VCMPPS  $0x15, Z20, Z11, K2
	VCMPPS  $0x15, Z20, Z24, K4
	KORW    K1, K2, K1
	KORW    K3, K4, K3
	KORTESTW K1, K3
	JNE     pp16fix2
pp16rv2:
	VMULPS  Z12, Z12, Z13 // rv*rv
	VMULPS  Z25, Z25, Z26
	VMULPS  Z13, Z12, Z13 // rv*(rv*rv)
	VMULPS  Z26, Z25, Z26
	VBROADCASTSS (R9)(DX*4), Z14
	VBROADCASTSS 4(R9)(DX*4), Z27
	VMULPS  Z13, Z14, Z13 // rin3 = sm*rv^3
	VMULPS  Z26, Z27, Z26
	VFMADD231PS Z13, Z8, Z4 // ax += rin3*dx
	VFMADD231PS Z26, Z21, Z4
	VFMADD231PS Z13, Z9, Z5 // ay
	VFMADD231PS Z26, Z22, Z5
	VFMADD231PS Z13, Z10, Z6 // az
	VFMADD231PS Z26, Z23, Z6
	VFNMADD231PS Z12, Z14, Z7 // p -= sm*rv
	VFNMADD231PS Z25, Z27, Z7
	ADDQ    $2, DX
pp16test2:
	CMPQ    DX, R10
	JLT     pp16loop2
	CMPQ    DX, CX
	JGE     pp16done
	VBROADCASTSS (SI)(DX*4), Z8 // the odd last source
	VSUBPS  Z0, Z8, Z8
	VBROADCASTSS (DI)(DX*4), Z9
	VSUBPS  Z1, Z9, Z9
	VBROADCASTSS (R8)(DX*4), Z10
	VSUBPS  Z2, Z10, Z10
	VMOVAPS Z3, Z11
	VFMADD231PS Z8, Z8, Z11
	VFMADD231PS Z9, Z9, Z11
	VFMADD231PS Z10, Z10, Z11
	VMULPS  Z17, Z11, Z13
	VPSRLD  $1, Z11, Z12
	VPSUBD  Z12, Z16, Z12
	VMULPS  Z12, Z12, Z14
	VFMADD213PS Z18, Z13, Z14
	VMULPS  Z14, Z12, Z12
	VMULPS  Z12, Z12, Z14
	VFMADD213PS Z18, Z13, Z14
	VMULPS  Z14, Z12, Z12
	VMULPS  Z12, Z12, Z14
	VFMADD213PS Z18, Z13, Z14
	VMULPS  Z14, Z12, Z12
	VCMPPS  $0x19, Z19, Z11, K1
	VCMPPS  $0x15, Z20, Z11, K2
	KORTESTW K1, K2
	JNE     pp16fix1
pp16rv1:
	VMULPS  Z12, Z12, Z13
	VMULPS  Z13, Z12, Z13
	VBROADCASTSS (R9)(DX*4), Z14
	VMULPS  Z13, Z14, Z13
	VFMADD231PS Z13, Z8, Z4
	VFMADD231PS Z13, Z9, Z5
	VFMADD231PS Z13, Z10, Z6
	VFNMADD231PS Z12, Z14, Z7
pp16done:
	MOVQ    out+56(FP), AX
	VMOVUPS Z4, 0(AX)
	VMOVUPS Z5, 64(AX)
	VMOVUPS Z6, 128(AX)
	VMOVUPS Z7, 192(AX)
	VZEROUPPER
	RET
pp16fix2: // rv = 1/sqrt(r2) in the lanes out of range
	VSQRTPS Z11, Z13
	VDIVPS  Z13, Z15, Z13
	VMOVAPS Z13, K1, Z12
	VSQRTPS Z24, Z26
	VDIVPS  Z26, Z15, Z26
	VMOVAPS Z26, K3, Z25
	JMP     pp16rv2
pp16fix1:
	KORW    K1, K2, K1
	VSQRTPS Z11, Z13
	VDIVPS  Z13, Z15, Z13
	VMOVAPS Z13, K1, Z12
	JMP     pp16rv1

// func m2pQuad16(tg *laneBlock16, cols *[10]*float32, lo, hi int, out *laneSums16)
//
// m2pQuad8 at sixteen lanes, two cells per iteration like pp16 (an odd
// last cell alone), each lane still summing in list order. The ten
// columns are read as embedded broadcasts, the constants too but
// magic, so the two cells' temporaries fit beside the targets and
// sums: Z0-Z10 the first cell's, Z11-Z21 the second's, Z22-Z25 the
// sums, Z26-Z29 the targets and eps2, Z30 magic. K1-K4 hold the lanes
// out of range, two masks per cell; AX, free once the block is loaded,
// is hi-1.
TEXT ·m2pQuad16(SB), NOSPLIT, $0-40
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
	VMOVUPS 0(AX), Z26   // xi
	VMOVUPS 64(AX), Z27  // yi
	VMOVUPS 128(AX), Z28 // zi
	VMOVUPS 192(AX), Z29 // eps2
	VPBROADCASTD magic8<>(SB), Z30
	VPXORD Z22, Z22, Z22 // ax
	VPXORD Z23, Z23, Z23 // ay
	VPXORD Z24, Z24, Z24 // az
	VPXORD Z25, Z25, Z25 // p
	MOVQ   hi+24(FP), AX
	DECQ   AX // a pair starts below hi-1
	MOVQ   lo+16(FP), DX
	JMP    q16test2
q16loop2:
	VBROADCASTSS (CX)(DX*4), Z0
	VBROADCASTSS 4(CX)(DX*4), Z11
	VSUBPS  Z26, Z0, Z0 // da = cx - xi (first cell; the second interleaved)
	VSUBPS  Z26, Z11, Z11
	VBROADCASTSS (SI)(DX*4), Z1
	VBROADCASTSS 4(SI)(DX*4), Z12
	VSUBPS  Z27, Z1, Z1 // db
	VSUBPS  Z27, Z12, Z12
	VBROADCASTSS (DI)(DX*4), Z2
	VBROADCASTSS 4(DI)(DX*4), Z13
	VSUBPS  Z28, Z2, Z2 // dc
	VSUBPS  Z28, Z13, Z13
	VMOVAPS Z29, Z3
	VMOVAPS Z29, Z14
	VFMADD231PS Z0, Z0, Z3
	VFMADD231PS Z11, Z11, Z14
	VFMADD231PS Z1, Z1, Z3
	VFMADD231PS Z12, Z12, Z14
	VFMADD231PS Z2, Z2, Z3 // r2 = dc*dc + (db*db + (da*da + eps2))
	VFMADD231PS Z13, Z13, Z14
	VMULPS.BCST negHalf8<>(SB), Z3, Z5 // h = -r2/2
	VMULPS.BCST negHalf8<>(SB), Z14, Z16
	VPSRLD  $1, Z3, Z4
	VPSRLD  $1, Z14, Z15
	VPSUBD  Z4, Z30, Z4 // y = magic - bits(r2)>>1
	VPSUBD  Z15, Z30, Z15
	VMULPS  Z4, Z4, Z6
	VMULPS  Z15, Z15, Z17
	VFMADD213PS.BCST c15x8<>(SB), Z5, Z6
	VFMADD213PS.BCST c15x8<>(SB), Z16, Z17
	VMULPS  Z6, Z4, Z4 // y *= fma(h, y*y, 1.5), three times
	VMULPS  Z17, Z15, Z15
	VMULPS  Z4, Z4, Z6
	VMULPS  Z15, Z15, Z17
	VFMADD213PS.BCST c15x8<>(SB), Z5, Z6
	VFMADD213PS.BCST c15x8<>(SB), Z16, Z17
	VMULPS  Z6, Z4, Z4
	VMULPS  Z17, Z15, Z15
	VMULPS  Z4, Z4, Z6
	VMULPS  Z15, Z15, Z17
	VFMADD213PS.BCST c15x8<>(SB), Z5, Z6
	VFMADD213PS.BCST c15x8<>(SB), Z16, Z17
	VMULPS  Z6, Z4, Z4
	VMULPS  Z17, Z15, Z15
	VCMPPS.BCST $0x19, lo8<>(SB), Z3, K1 // r2 out of [2^-100, 2^100)
	VCMPPS.BCST $0x19, lo8<>(SB), Z14, K3
	VCMPPS.BCST $0x15, hi8<>(SB), Z3, K2
	VCMPPS.BCST $0x15, hi8<>(SB), Z14, K4
	KORW    K1, K2, K1
	KORW    K3, K4, K3
	KORTESTW K1, K3
	JNE     q16fix2
q16rv2:
	VMULPS  Z4, Z4, Z3 // rv2
	VMULPS  Z15, Z15, Z14
	VMULPS  Z3, Z4, Z5 // rv3
	VMULPS  Z14, Z15, Z16
	VMULPS  Z3, Z5, Z6 // rv5
	VMULPS  Z14, Z16, Z17
	VMULPS.BCST (R8)(DX*4), Z0, Z7 // qxx*da
	VMULPS.BCST 4(R8)(DX*4), Z11, Z18
	VFMADD231PS.BCST (R11)(DX*4), Z1, Z7 // + qxy*db
	VFMADD231PS.BCST 4(R11)(DX*4), Z12, Z18
	VFMADD231PS.BCST (R12)(DX*4), Z2, Z7 // qdx = ... + qxz*dc
	VFMADD231PS.BCST 4(R12)(DX*4), Z13, Z18
	VMULPS.BCST (R11)(DX*4), Z0, Z8 // qxy*da
	VMULPS.BCST 4(R11)(DX*4), Z11, Z19
	VFMADD231PS.BCST (R9)(DX*4), Z1, Z8 // + qyy*db
	VFMADD231PS.BCST 4(R9)(DX*4), Z12, Z19
	VFMADD231PS.BCST (R13)(DX*4), Z2, Z8 // qdy = ... + qyz*dc
	VFMADD231PS.BCST 4(R13)(DX*4), Z13, Z19
	VMULPS.BCST (R12)(DX*4), Z0, Z9 // qxz*da
	VMULPS.BCST 4(R12)(DX*4), Z11, Z20
	VFMADD231PS.BCST (R13)(DX*4), Z1, Z9 // + qyz*db
	VFMADD231PS.BCST 4(R13)(DX*4), Z12, Z20
	VFMADD231PS.BCST (R10)(DX*4), Z2, Z9 // qdz = ... + qzz*dc
	VFMADD231PS.BCST 4(R10)(DX*4), Z13, Z20
	VMULPS  Z7, Z0, Z10 // da*qdx
	VMULPS  Z18, Z11, Z21
	VFMADD231PS Z8, Z1, Z10 // + db*qdy
	VFMADD231PS Z19, Z12, Z21
	VFMADD231PS Z9, Z2, Z10 // dqd = ... + dc*qdz
	VFMADD231PS Z20, Z13, Z21
	VMULPS.BCST (BX)(DX*4), Z5, Z5 // mono = cm*rv3
	VMULPS.BCST 4(BX)(DX*4), Z16, Z16
	VMULPS  Z6, Z3, Z3 // rv7 = rv5*rv2
	VMULPS  Z17, Z14, Z14
	VMULPS.BCST c25x8<>(SB), Z3, Z3 // 2.5*rv7
	VMULPS.BCST c25x8<>(SB), Z14, Z14
	VFMADD231PS Z3, Z10, Z5 // mc = dqd*2.5*rv7 + mono
	VFMADD231PS Z14, Z21, Z16
	VFNMADD231PS Z6, Z7, Z22 // ax -= qdx*rv5, ax += mc*da: the first cell, then the second
	VFMADD231PS Z5, Z0, Z22
	VFNMADD231PS Z17, Z18, Z22
	VFMADD231PS Z16, Z11, Z22
	VFNMADD231PS Z6, Z8, Z23 // ay
	VFMADD231PS Z5, Z1, Z23
	VFNMADD231PS Z17, Z19, Z23
	VFMADD231PS Z16, Z12, Z23
	VFNMADD231PS Z6, Z9, Z24 // az
	VFMADD231PS Z5, Z2, Z24
	VFNMADD231PS Z17, Z20, Z24
	VFMADD231PS Z16, Z13, Z24
	VMULPS.BCST negHalf8<>(SB), Z6, Z6 // -rv5/2, p += dqd*(-rv5/2), p -= cm*rv
	VFMADD231PS Z6, Z10, Z25
	VFNMADD231PS.BCST (BX)(DX*4), Z4, Z25
	VMULPS.BCST negHalf8<>(SB), Z17, Z17
	VFMADD231PS Z17, Z21, Z25
	VFNMADD231PS.BCST 4(BX)(DX*4), Z15, Z25
	ADDQ    $2, DX
q16test2:
	CMPQ    DX, AX
	JLT     q16loop2
	CMPQ    DX, hi+24(FP)
	JGE     q16done
	VBROADCASTSS (CX)(DX*4), Z0 // the odd last cell
	VSUBPS  Z26, Z0, Z0
	VBROADCASTSS (SI)(DX*4), Z1
	VSUBPS  Z27, Z1, Z1
	VBROADCASTSS (DI)(DX*4), Z2
	VSUBPS  Z28, Z2, Z2
	VMOVAPS Z29, Z3
	VFMADD231PS Z0, Z0, Z3
	VFMADD231PS Z1, Z1, Z3
	VFMADD231PS Z2, Z2, Z3
	VMULPS.BCST negHalf8<>(SB), Z3, Z5
	VPSRLD  $1, Z3, Z4
	VPSUBD  Z4, Z30, Z4
	VMULPS  Z4, Z4, Z6
	VFMADD213PS.BCST c15x8<>(SB), Z5, Z6
	VMULPS  Z6, Z4, Z4
	VMULPS  Z4, Z4, Z6
	VFMADD213PS.BCST c15x8<>(SB), Z5, Z6
	VMULPS  Z6, Z4, Z4
	VMULPS  Z4, Z4, Z6
	VFMADD213PS.BCST c15x8<>(SB), Z5, Z6
	VMULPS  Z6, Z4, Z4
	VCMPPS.BCST $0x19, lo8<>(SB), Z3, K1
	VCMPPS.BCST $0x15, hi8<>(SB), Z3, K2
	KORTESTW K1, K2
	JNE     q16fix1
q16rv1:
	VMULPS  Z4, Z4, Z3
	VMULPS  Z3, Z4, Z5
	VMULPS  Z3, Z5, Z6
	VMULPS.BCST (R8)(DX*4), Z0, Z7
	VFMADD231PS.BCST (R11)(DX*4), Z1, Z7
	VFMADD231PS.BCST (R12)(DX*4), Z2, Z7
	VMULPS.BCST (R11)(DX*4), Z0, Z8
	VFMADD231PS.BCST (R9)(DX*4), Z1, Z8
	VFMADD231PS.BCST (R13)(DX*4), Z2, Z8
	VMULPS.BCST (R12)(DX*4), Z0, Z9
	VFMADD231PS.BCST (R13)(DX*4), Z1, Z9
	VFMADD231PS.BCST (R10)(DX*4), Z2, Z9
	VMULPS  Z7, Z0, Z10
	VFMADD231PS Z8, Z1, Z10
	VFMADD231PS Z9, Z2, Z10
	VMULPS.BCST (BX)(DX*4), Z5, Z5
	VMULPS  Z6, Z3, Z3
	VMULPS.BCST c25x8<>(SB), Z3, Z3
	VFMADD231PS Z3, Z10, Z5
	VFNMADD231PS Z6, Z7, Z22
	VFMADD231PS Z5, Z0, Z22
	VFNMADD231PS Z6, Z8, Z23
	VFMADD231PS Z5, Z1, Z23
	VFNMADD231PS Z6, Z9, Z24
	VFMADD231PS Z5, Z2, Z24
	VMULPS.BCST negHalf8<>(SB), Z6, Z6
	VFMADD231PS Z6, Z10, Z25
	VFNMADD231PS.BCST (BX)(DX*4), Z4, Z25
q16done:
	MOVQ    out+32(FP), AX
	VMOVUPS Z22, 0(AX)
	VMOVUPS Z23, 64(AX)
	VMOVUPS Z24, 128(AX)
	VMOVUPS Z25, 192(AX)
	VZEROUPPER
	RET
q16fix2: // rv = 1/sqrt(r2) in the lanes out of range
	VSQRTPS Z3, Z5
	VBROADCASTSS one8<>(SB), Z6
	VDIVPS  Z5, Z6, Z5
	VMOVAPS Z5, K1, Z4
	VSQRTPS Z14, Z16
	VBROADCASTSS one8<>(SB), Z17
	VDIVPS  Z16, Z17, Z16
	VMOVAPS Z16, K3, Z15
	JMP     q16rv2
q16fix1:
	KORW    K1, K2, K1
	VSQRTPS Z3, Z5
	VBROADCASTSS one8<>(SB), Z6
	VDIVPS  Z5, Z6, Z5
	VMOVAPS Z5, K1, Z4
	JMP     q16rv1

// func mulAdd16(n int, out *[16]float32)
TEXT ·mulAdd16(SB), NOSPLIT, $0-16
	MOVQ n+0(FP), CX
	VBROADCASTSS probeC<>(SB), Z8
	VBROADCASTSS probeD<>(SB), Z9
	VBROADCASTSS one8<>(SB), Z0
	VMOVAPS Z0, Z1
	VMOVAPS Z0, Z2
	VMOVAPS Z0, Z3
	VMOVAPS Z0, Z4
	VMOVAPS Z0, Z5
	VMOVAPS Z0, Z6
	VMOVAPS Z0, Z7
	JMP     ma16test
ma16loop:
	VFMADD213PS Z9, Z8, Z0
	VFMADD213PS Z9, Z8, Z1
	VFMADD213PS Z9, Z8, Z2
	VFMADD213PS Z9, Z8, Z3
	VFMADD213PS Z9, Z8, Z4
	VFMADD213PS Z9, Z8, Z5
	VFMADD213PS Z9, Z8, Z6
	VFMADD213PS Z9, Z8, Z7
	DECQ   CX
ma16test:
	TESTQ  CX, CX
	JGT    ma16loop
	VADDPS Z1, Z0, Z0
	VADDPS Z3, Z2, Z2
	VADDPS Z5, Z4, Z4
	VADDPS Z7, Z6, Z6
	VADDPS Z2, Z0, Z0
	VADDPS Z6, Z4, Z4
	VADDPS Z4, Z0, Z0
	MOVQ   out+8(FP), AX
	VMOVUPS Z0, 0(AX)
	VZEROUPPER
	RET

// func fmaLanes8(a, b, c *[8]float32)
//
// c = a*b + c lane-wise, one VFMADD231PS: the hardware fused
// multiply-add the kernels execute, which the tests hold fma32 to.
TEXT ·fmaLanes8(SB), NOSPLIT, $0-24
	MOVQ a+0(FP), AX
	MOVQ b+8(FP), BX
	MOVQ c+16(FP), CX
	VMOVUPS (AX), Y0
	VMOVUPS (BX), Y1
	VMOVUPS (CX), Y2
	VFMADD231PS Y1, Y0, Y2
	VMOVUPS Y2, (CX)
	VZEROUPPER
	RET
