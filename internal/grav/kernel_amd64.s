// SIMD forms of the float32 loops in kernel.go, in lane pairs: target k
// sits in lanes 2k and 2k+1, and one VBROADCASTSD loads the source pair
// (j, j+1) into every lane pair, j in the even lane and j+1 in the odd
// one -- four targets in a YMM register (AVX2 and FMA: pp4x2,
// m2pQuad4x2), eight in a ZMM register (AVX-512F: pp8x2, m2pQuad8x2).
// A lane pair so carries the Go loops' two partial sums of a target,
// over a sweep's even and its odd positions. An odd last source is
// broadcast to every lane and added to the even lanes only, under an
// opmask (ZMM) or followed by a blend that takes the odd lanes' sums
// back (YMM). Only lane-wise subtracts, multiplies, fused
// multiply-adds and the integer seed of invSqrt32 touch the values, in
// the order, association and fusion the Go loops write, with no sum
// across lanes -- each lane is the scalar loop over its partial, bit
// for bit. A fused multiply-add rounds once wherever it stands (fma32
// in Go), so it is as portable between the two as a multiply.
//
// A kernel call sweeps a block over the whole list, in chunks of foldK
// = 128 sources: the sums start from zero, and at a chunk's end each
// target's two lanes are folded into its float64 outputs as fold does
// it -- widened (VCVTPS2PD, exact), split into even and odd lanes
// (VPERMT2PD, or VUNPCKLPD/VUNPCKHPD and a VPERMPD), added (VADDPD),
// and that added to the output under a mask of the block's first m
// targets, the real ones. The columns are addressed from the chunk's
// end: DX runs from minus the chunk's length up to zero, so the tests
// on it compare with constants and free a register.
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
// broadcast from memory; OP b, a, K, dst writes only the lanes of K);
// VCMPPS $p, b, a, K is K = a p b, with predicates 0x19 "not >=" and
// 0x15 "not <", both true on NaN; VBLENDVPS m, x, y, dst is dst = m ?
// x : y, and VBLENDPS $0xAA, x, y, dst takes the odd lanes from x, the
// even ones from y; VPERMT2PD b, idx, a is a = (a ++ b)[idx];
// VMASKMOVPD m, mask, dst and VMOVUPD m, K, dst load and store only
// where the mask is set, and fault nowhere else. R14 (g) and R15
// (clobbered by dynamic linking) are never used.

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

// The opmask of the even lanes, where an odd last source is added.
DATA evenLanes<>+0(SB)/2, $0x5555
GLOBL evenLanes<>(SB), RODATA|NOPTR, $2

// The fold's constants: the opmasks of the first m of eight targets,
// the even and odd float64 lanes of two ZMM registers' sixteen, and the
// indices of four targets.
DATA lowMasks<>+0(SB)/2, $0x00
DATA lowMasks<>+2(SB)/2, $0x01
DATA lowMasks<>+4(SB)/2, $0x03
DATA lowMasks<>+6(SB)/2, $0x07
DATA lowMasks<>+8(SB)/2, $0x0f
DATA lowMasks<>+10(SB)/2, $0x1f
DATA lowMasks<>+12(SB)/2, $0x3f
DATA lowMasks<>+14(SB)/2, $0x7f
DATA lowMasks<>+16(SB)/2, $0xff
GLOBL lowMasks<>(SB), RODATA|NOPTR, $18
DATA evenIdx<>+0(SB)/8, $0
DATA evenIdx<>+8(SB)/8, $2
DATA evenIdx<>+16(SB)/8, $4
DATA evenIdx<>+24(SB)/8, $6
DATA evenIdx<>+32(SB)/8, $8
DATA evenIdx<>+40(SB)/8, $10
DATA evenIdx<>+48(SB)/8, $12
DATA evenIdx<>+56(SB)/8, $14
GLOBL evenIdx<>(SB), RODATA|NOPTR, $64
DATA oddIdx<>+0(SB)/8, $1
DATA oddIdx<>+8(SB)/8, $3
DATA oddIdx<>+16(SB)/8, $5
DATA oddIdx<>+24(SB)/8, $7
DATA oddIdx<>+32(SB)/8, $9
DATA oddIdx<>+40(SB)/8, $11
DATA oddIdx<>+48(SB)/8, $13
DATA oddIdx<>+56(SB)/8, $15
GLOBL oddIdx<>(SB), RODATA|NOPTR, $64
DATA lanes4<>+0(SB)/8, $0
DATA lanes4<>+8(SB)/8, $1
DATA lanes4<>+16(SB)/8, $2
DATA lanes4<>+24(SB)/8, $3
GLOBL lanes4<>(SB), RODATA|NOPTR, $32

// The probe's multiplier 0.999 and addend 1e-3.
DATA probeC<>+0(SB)/4, $0x3f7fbe77
GLOBL probeC<>(SB), RODATA|NOPTR, $4
DATA probeD<>+0(SB)/4, $0x3a83126f
GLOBL probeD<>(SB), RODATA|NOPTR, $4

// FOLD8 folds one output column of a ZMM block into targets [0, m) of
// it, as fold does: the sums S (SY its low half) widened into T0 and T1
// (T1Y its low half), the even lanes gathered into T2 by the indices
// EVEN and the odd into T0 by ODD, added, and that added to the eight
// float64 outputs at PTR in the lanes of K6.
#define FOLD8(S, SY, T0, T1, T1Y, T2, T3, EVEN, ODD, PTR) \
	VCVTPS2PD SY, T0; \
	VEXTRACTF64X4 $1, S, T1Y; \
	VCVTPS2PD T1Y, T1; \
	VMOVAPD T0, T2; \
	VPERMT2PD T1, EVEN, T2; \
	VPERMT2PD T1, ODD, T0; \
	VADDPD T0, T2, T2; \
	VMOVUPD (PTR), K6, T3; \
	VADDPD T2, T3, T3; \
	VMOVUPD T3, K6, (PTR)

// FOLD4 is FOLD8 for a YMM block: the lanes widened into T0 and T1,
// the even ones of targets 0 2 1 3 into T2 and the odd into T3, added
// and put in target order, and added to the four outputs at PTR where
// MASK is set.
#define FOLD4(S, SX, T0, T1, T1X, T2, T3, MASK, PTR) \
	VCVTPS2PD SX, T0; \
	VEXTRACTF128 $1, S, T1X; \
	VCVTPS2PD T1X, T1; \
	VUNPCKLPD T1, T0, T2; \
	VUNPCKHPD T1, T0, T3; \
	VADDPD T3, T2, T2; \
	VPERMPD $0xD8, T2, T2; \
	VMASKMOVPD (PTR), MASK, T3; \
	VADDPD T2, T3, T3; \
	VMASKMOVPD T3, MASK, (PTR)

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

// func pp4x2(b *laneBlock8, sx, sy, sz, sm *float32, n int, out *[4]*float64, m int)
//
// One pair per iteration. The odd last source runs through the same
// body, broadcast to every lane, with the sums from before it kept in
// the block; a blend then takes the odd lanes' sums back from there.
//
// Y0-Y3 the targets and eps2, Y4-Y7 the sums, Y8-Y14 temporaries, Y15
// the masses; R10 the block, AX the sources left.
TEXT ·pp4x2(SB), NOSPLIT, $0-64
	MOVQ b+0(FP), R10
	MOVQ sx+8(FP), SI
	MOVQ sy+16(FP), DI
	MOVQ sz+24(FP), R8
	MOVQ sm+32(FP), R9
	MOVQ n+40(FP), AX
	VMOVUPS 0(R10), Y0  // xi
	VMOVUPS 32(R10), Y1 // yi
	VMOVUPS 64(R10), Y2 // zi
	VMOVUPS 96(R10), Y3 // eps2
	JMP     pp4next
pp4chunk:
	MOVQ    $128, DX // foldK
	CMPQ    AX, DX
	CMOVQLT AX, DX // the chunk's length
	SUBQ    DX, AX
	LEAQ    (SI)(DX*4), SI // the columns from the chunk's end
	LEAQ    (DI)(DX*4), DI
	LEAQ    (R8)(DX*4), R8
	LEAQ    (R9)(DX*4), R9
	NEGQ    DX
	VXORPS  Y4, Y4, Y4 // ax
	VXORPS  Y5, Y5, Y5 // ay
	VXORPS  Y6, Y6, Y6 // az
	VXORPS  Y7, Y7, Y7 // p
	JMP     pp4test
	PCALIGN $64 // the loop head on a cache line, wherever the linker puts the function
pp4loop:
	VBROADCASTSD (SI)(DX*4), Y8 // sources j and j+1 in every lane pair
	VBROADCASTSD (DI)(DX*4), Y9
	VBROADCASTSD (R8)(DX*4), Y10
	VBROADCASTSD (R9)(DX*4), Y15
pp4body:
	VSUBPS  Y0, Y8, Y8    // dx = sx - xi
	VSUBPS  Y1, Y9, Y9    // dy
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
	JNE     pp4fix
pp4rv:
	VMULPS  Y13, Y13, Y14     // rv*rv
	VMULPS  Y14, Y13, Y14     // rv*(rv*rv)
	VMULPS  Y14, Y15, Y14     // rin3 = sm*rv^3
	VFMADD231PS Y14, Y8, Y4   // ax += rin3*dx
	VFMADD231PS Y14, Y9, Y5   // ay += rin3*dy
	VFMADD231PS Y14, Y10, Y6  // az += rin3*dz
	VFNMADD231PS Y13, Y15, Y7 // p -= sm*rv
	ADDQ    $2, DX
pp4test:
	CMPQ    DX, $-1
	JLT     pp4loop
	JEQ     pp4odd // one source left
	CMPQ    DX, $0
	JEQ     pp4fold
	VBLENDPS $0xAA, 128(R10), Y4, Y4 // past the odd last source: its odd lanes go back
	VBLENDPS $0xAA, 160(R10), Y5, Y5
	VBLENDPS $0xAA, 192(R10), Y6, Y6
	VBLENDPS $0xAA, 224(R10), Y7, Y7
pp4fold: // into targets [0, m) of out
	VPBROADCASTQ m+56(FP), Y14
	VPCMPGTQ lanes4<>(SB), Y14, Y14 // the targets k < m
	MOVQ    out+48(FP), R11
	MOVQ    0(R11), DX
	FOLD4(Y4, X4, Y8, Y9, X9, Y10, Y11, Y14, DX) // ax
	MOVQ    8(R11), DX
	FOLD4(Y5, X5, Y8, Y9, X9, Y10, Y11, Y14, DX) // ay
	MOVQ    16(R11), DX
	FOLD4(Y6, X6, Y8, Y9, X9, Y10, Y11, Y14, DX) // az
	MOVQ    24(R11), DX
	FOLD4(Y7, X7, Y8, Y9, X9, Y10, Y11, Y14, DX) // pot
pp4next:
	TESTQ   AX, AX
	JNE     pp4chunk
	VZEROUPPER
	RET
pp4odd:
	VMOVUPS Y4, 128(R10) // the sums before the odd last source
	VMOVUPS Y5, 160(R10)
	VMOVUPS Y6, 192(R10)
	VMOVUPS Y7, 224(R10)
	VBROADCASTSS (SI)(DX*4), Y8 // the odd last source, in every lane
	VBROADCASTSS (DI)(DX*4), Y9
	VBROADCASTSS (R8)(DX*4), Y10
	VBROADCASTSS (R9)(DX*4), Y15
	JMP     pp4body
pp4fix:
	VSQRTPS Y11, Y12
	VMOVUPS one8<>(SB), Y11
	VDIVPS  Y12, Y11, Y12
	VBLENDVPS Y14, Y12, Y13, Y13 // rv = 1/sqrt(r2) where out of range
	JMP     pp4rv

// func m2pQuad4x2(b *laneBlock8, cols *[10]*float32, n int, out *[4]*float64, m int)
//
// Twelve general registers carry the block, the ten columns and the
// index, so the targets and eps2 are read from the block as memory
// operands, the constants from read-only data and the cells left from
// the frame; Y0-Y11 are temporaries, Y12-Y15 the sums. One pair per
// iteration, then an odd last cell, broadcast to every lane, after
// which a blend takes the odd lanes' sums back from before it, kept in
// the block.
TEXT ·m2pQuad4x2(SB), NOSPLIT, $8-40
	MOVQ b+0(FP), AX
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
	MOVQ n+16(FP), DX
	MOVQ DX, left-8(SP)
	JMP  q4next
q4chunk:
	MOVQ    $128, DX // foldK
	CMPQ    left-8(SP), DX
	CMOVQLT left-8(SP), DX // the chunk's length
	SUBQ    DX, left-8(SP)
	LEAQ    (CX)(DX*4), CX // the columns from the chunk's end
	LEAQ    (SI)(DX*4), SI
	LEAQ    (DI)(DX*4), DI
	LEAQ    (R8)(DX*4), R8
	LEAQ    (R9)(DX*4), R9
	LEAQ    (R10)(DX*4), R10
	LEAQ    (R11)(DX*4), R11
	LEAQ    (R12)(DX*4), R12
	LEAQ    (R13)(DX*4), R13
	LEAQ    (BX)(DX*4), BX
	NEGQ    DX
	VXORPS Y12, Y12, Y12 // ax
	VXORPS Y13, Y13, Y13 // ay
	VXORPS Y14, Y14, Y14 // az
	VXORPS Y15, Y15, Y15 // p
	JMP    q4test
	PCALIGN $64 // the loop head on a cache line, wherever the linker puts the function
q4loop: // cells j and j+1 in every lane pair
	VBROADCASTSD (CX)(DX*4), Y0
	VSUBPS  0(AX), Y0, Y0  // da = cx - xi
	VBROADCASTSD (SI)(DX*4), Y1
	VSUBPS  32(AX), Y1, Y1 // db
	VBROADCASTSD (DI)(DX*4), Y2
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
	JNE     q4fix
q4rv:
	VMULPS  Y5, Y5, Y3     // rv2
	VMULPS  Y3, Y5, Y4     // rv3
	VMULPS  Y3, Y4, Y6     // rv5
	VBROADCASTSD (R8)(DX*4), Y7
	VMULPS  Y0, Y7, Y7     // qxx*da
	VBROADCASTSD (R11)(DX*4), Y8
	VFMADD231PS Y8, Y1, Y7 // + qxy*db
	VBROADCASTSD (R12)(DX*4), Y9
	VFMADD231PS Y9, Y2, Y7 // qdx = ... + qxz*dc
	VMULPS  Y0, Y8, Y8     // qxy*da
	VBROADCASTSD (R9)(DX*4), Y10
	VFMADD231PS Y10, Y1, Y8 // + qyy*db
	VBROADCASTSD (R13)(DX*4), Y10
	VFMADD231PS Y10, Y2, Y8 // qdy = ... + qyz*dc
	VMULPS  Y0, Y9, Y9     // qxz*da
	VFMADD231PS Y10, Y1, Y9 // + qyz*db
	VBROADCASTSD (R10)(DX*4), Y10
	VFMADD231PS Y10, Y2, Y9 // qdz = ... + qzz*dc
	VMULPS  Y7, Y0, Y10    // da*qdx
	VFMADD231PS Y8, Y1, Y10 // + db*qdy
	VFMADD231PS Y9, Y2, Y10 // dqd = ... + dc*qdz
	VBROADCASTSD (BX)(DX*4), Y11
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
	ADDQ    $2, DX
q4test:
	CMPQ    DX, $-1
	JLT     q4loop
	JGT     q4fold // no cell left
	VMOVUPS Y12, 128(AX) // the sums before the odd last cell
	VMOVUPS Y13, 160(AX)
	VMOVUPS Y14, 192(AX)
	VMOVUPS Y15, 224(AX)
	VBROADCASTSS (CX)(DX*4), Y0
	VSUBPS  0(AX), Y0, Y0
	VBROADCASTSS (SI)(DX*4), Y1
	VSUBPS  32(AX), Y1, Y1
	VBROADCASTSS (DI)(DX*4), Y2
	VSUBPS  64(AX), Y2, Y2
	VMOVUPS 96(AX), Y3
	VFMADD231PS Y0, Y0, Y3
	VFMADD231PS Y1, Y1, Y3
	VFMADD231PS Y2, Y2, Y3
	VMULPS  negHalf8<>(SB), Y3, Y4
	VPSRLD  $1, Y3, Y5
	VMOVUPS magic8<>(SB), Y6
	VPSUBD  Y5, Y6, Y5
	VMULPS  Y5, Y5, Y6
	VFMADD213PS c15x8<>(SB), Y4, Y6
	VMULPS  Y6, Y5, Y5
	VMULPS  Y5, Y5, Y6
	VFMADD213PS c15x8<>(SB), Y4, Y6
	VMULPS  Y6, Y5, Y5
	VMULPS  Y5, Y5, Y6
	VFMADD213PS c15x8<>(SB), Y4, Y6
	VMULPS  Y6, Y5, Y5
	VCMPPS  $0x19, lo8<>(SB), Y3, Y6
	VCMPPS  $0x15, hi8<>(SB), Y3, Y4
	VORPS   Y4, Y6, Y6
	VTESTPS Y6, Y6
	JNE     q4oddfix
q4oddrv:
	VMULPS  Y5, Y5, Y3
	VMULPS  Y3, Y5, Y4
	VMULPS  Y3, Y4, Y6
	VBROADCASTSS (R8)(DX*4), Y7
	VMULPS  Y0, Y7, Y7
	VBROADCASTSS (R11)(DX*4), Y8
	VFMADD231PS Y8, Y1, Y7
	VBROADCASTSS (R12)(DX*4), Y9
	VFMADD231PS Y9, Y2, Y7
	VMULPS  Y0, Y8, Y8
	VBROADCASTSS (R9)(DX*4), Y10
	VFMADD231PS Y10, Y1, Y8
	VBROADCASTSS (R13)(DX*4), Y10
	VFMADD231PS Y10, Y2, Y8
	VMULPS  Y0, Y9, Y9
	VFMADD231PS Y10, Y1, Y9
	VBROADCASTSS (R10)(DX*4), Y10
	VFMADD231PS Y10, Y2, Y9
	VMULPS  Y7, Y0, Y10
	VFMADD231PS Y8, Y1, Y10
	VFMADD231PS Y9, Y2, Y10
	VBROADCASTSS (BX)(DX*4), Y11
	VMULPS  Y4, Y11, Y4
	VMULPS  Y3, Y6, Y3
	VMULPS  c25x8<>(SB), Y3, Y3
	VFMADD231PS Y3, Y10, Y4
	VFNMADD231PS Y6, Y7, Y12
	VFMADD231PS Y4, Y0, Y12
	VFNMADD231PS Y6, Y8, Y13
	VFMADD231PS Y4, Y1, Y13
	VFNMADD231PS Y6, Y9, Y14
	VFMADD231PS Y4, Y2, Y14
	VMULPS  negHalf8<>(SB), Y6, Y6
	VFMADD231PS Y6, Y10, Y15
	VFNMADD231PS Y5, Y11, Y15
	VBLENDPS $0xAA, 128(AX), Y12, Y12 // its odd lanes go back
	VBLENDPS $0xAA, 160(AX), Y13, Y13
	VBLENDPS $0xAA, 192(AX), Y14, Y14
	VBLENDPS $0xAA, 224(AX), Y15, Y15
q4fold: // into targets [0, m) of out
	VPBROADCASTQ m+32(FP), Y11
	VPCMPGTQ lanes4<>(SB), Y11, Y11 // the targets k < m
	MOVQ    out+24(FP), DX
	MOVQ    0(DX), DX
	FOLD4(Y12, X12, Y0, Y1, X1, Y2, Y3, Y11, DX) // ax
	MOVQ    out+24(FP), DX
	MOVQ    8(DX), DX
	FOLD4(Y13, X13, Y0, Y1, X1, Y2, Y3, Y11, DX) // ay
	MOVQ    out+24(FP), DX
	MOVQ    16(DX), DX
	FOLD4(Y14, X14, Y0, Y1, X1, Y2, Y3, Y11, DX) // az
	MOVQ    out+24(FP), DX
	MOVQ    24(DX), DX
	FOLD4(Y15, X15, Y0, Y1, X1, Y2, Y3, Y11, DX) // pot
q4next:
	CMPQ    left-8(SP), $0
	JNE     q4chunk
	VZEROUPPER
	RET
q4fix:
	VSQRTPS Y3, Y4
	VMOVUPS one8<>(SB), Y7
	VDIVPS  Y4, Y7, Y4
	VBLENDVPS Y6, Y4, Y5, Y5 // rv = 1/sqrt(r2) where out of range
	JMP     q4rv
q4oddfix:
	VSQRTPS Y3, Y4
	VMOVUPS one8<>(SB), Y7
	VDIVPS  Y4, Y7, Y4
	VBLENDVPS Y6, Y4, Y5, Y5 // rv = 1/sqrt(r2) where out of range
	JMP     q4oddrv

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

// func pp8x2(b *laneBlock16, sx, sy, sz, sm *float32, n int, out *[4]*float64, m int)
//
// pp4x2 at eight targets, two pairs per iteration: the two are
// computed side by side and added to the sums one after the other, so
// each lane still sums its sources in list order. Then one more pair
// if two or three sources are left, and the odd last source broadcast
// to every lane, both through one block that adds to the lanes of K5:
// all of them for a pair, the even ones for the odd last source. K1-K4
// hold the lanes out of range, two masks per pair, and one such lane
// sends the pairs out of line; K6 the block's real targets.
//
// Z0-Z3 the targets and eps2, Z4-Z7 the sums, Z8-Z14 the first pair's
// temporaries and Z21-Z27 the second's, Z28 the last block's masses,
// Z15-Z20 the constants (one, magic, -1/2, 3/2, 2^-100, 2^100), Z29
// and Z30 the fold's lane indices; AX the sources left.
TEXT ·pp8x2(SB), NOSPLIT, $0-64
	MOVQ b+0(FP), AX
	MOVQ sx+8(FP), SI
	MOVQ sy+16(FP), DI
	MOVQ sz+24(FP), R8
	MOVQ sm+32(FP), R9
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
	VMOVUPD evenIdx<>(SB), Z29
	VMOVUPD oddIdx<>(SB), Z30
	MOVQ    m+56(FP), DX
	LEAQ    lowMasks<>(SB), R10
	KMOVW   (R10)(DX*2), K6
	MOVQ    out+48(FP), R10
	MOVQ    n+40(FP), AX
	JMP     pp8next
pp8chunk:
	MOVQ    $128, DX // foldK
	CMPQ    AX, DX
	CMOVQLT AX, DX // the chunk's length
	SUBQ    DX, AX
	LEAQ    (SI)(DX*4), SI // the columns from the chunk's end
	LEAQ    (DI)(DX*4), DI
	LEAQ    (R8)(DX*4), R8
	LEAQ    (R9)(DX*4), R9
	NEGQ    DX
	VPXORD  Z4, Z4, Z4 // ax
	VPXORD  Z5, Z5, Z5 // ay
	VPXORD  Z6, Z6, Z6 // az
	VPXORD  Z7, Z7, Z7 // p
	JMP     pp8test2
	PCALIGN $64 // the loop head on a cache line, wherever the linker puts the function
pp8loop2:
	VBROADCASTSD (SI)(DX*4), Z8 // sources j, j+1 in every lane pair
	VBROADCASTSD 8(SI)(DX*4), Z21 // and j+2, j+3
	VSUBPS  Z0, Z8, Z8 // dx = sx - xi
	VSUBPS  Z0, Z21, Z21
	VBROADCASTSD (DI)(DX*4), Z9
	VBROADCASTSD 8(DI)(DX*4), Z22
	VSUBPS  Z1, Z9, Z9 // dy
	VSUBPS  Z1, Z22, Z22
	VBROADCASTSD (R8)(DX*4), Z10
	VBROADCASTSD 8(R8)(DX*4), Z23
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
	JNE     pp8fix2
pp8rv2:
	VMULPS  Z12, Z12, Z13 // rv*rv
	VMULPS  Z25, Z25, Z26
	VMULPS  Z13, Z12, Z13 // rv*(rv*rv)
	VMULPS  Z26, Z25, Z26
	VBROADCASTSD (R9)(DX*4), Z14
	VBROADCASTSD 8(R9)(DX*4), Z27
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
	ADDQ    $4, DX
pp8test2:
	CMPQ    DX, $-3 // two pairs start below the chunk's end less 3
	JLT     pp8loop2
pp8tail:
	CMPQ    DX, $-1
	JGT     pp8fold
	JEQ     pp8odd
	VBROADCASTSD (SI)(DX*4), Z8 // one more pair, in every lane
	VBROADCASTSD (DI)(DX*4), Z9
	VBROADCASTSD (R8)(DX*4), Z10
	VBROADCASTSD (R9)(DX*4), Z28
	KXNORW  K5, K5, K5
	JMP     pp8one
pp8odd:
	VBROADCASTSS (SI)(DX*4), Z8 // the odd last source, in the even lanes
	VBROADCASTSS (DI)(DX*4), Z9
	VBROADCASTSS (R8)(DX*4), Z10
	VBROADCASTSS (R9)(DX*4), Z28
	KMOVW   evenLanes<>(SB), K5
pp8one:
	VSUBPS  Z0, Z8, Z8
	VSUBPS  Z1, Z9, Z9
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
	JNE     pp8fix1
pp8rv1:
	VMULPS  Z12, Z12, Z13
	VMULPS  Z13, Z12, Z13
	VMULPS  Z13, Z28, Z13
	VFMADD231PS Z13, Z8, K5, Z4 // the sums, in the lanes of K5
	VFMADD231PS Z13, Z9, K5, Z5
	VFMADD231PS Z13, Z10, K5, Z6
	VFNMADD231PS Z12, Z28, K5, Z7
	ADDQ    $2, DX
	JMP     pp8tail
pp8fold: // into targets [0, m) of out
	MOVQ    0(R10), R11
	FOLD8(Z4, Y4, Z8, Z9, Y9, Z10, Z11, Z29, Z30, R11) // ax
	MOVQ    8(R10), R11
	FOLD8(Z5, Y5, Z8, Z9, Y9, Z10, Z11, Z29, Z30, R11) // ay
	MOVQ    16(R10), R11
	FOLD8(Z6, Y6, Z8, Z9, Y9, Z10, Z11, Z29, Z30, R11) // az
	MOVQ    24(R10), R11
	FOLD8(Z7, Y7, Z8, Z9, Y9, Z10, Z11, Z29, Z30, R11) // pot
pp8next:
	TESTQ   AX, AX
	JNE     pp8chunk
	VZEROUPPER
	RET
pp8fix2: // rv = 1/sqrt(r2) in the lanes out of range
	VSQRTPS Z11, Z13
	VDIVPS  Z13, Z15, Z13
	VMOVAPS Z13, K1, Z12
	VSQRTPS Z24, Z26
	VDIVPS  Z26, Z15, Z26
	VMOVAPS Z26, K3, Z25
	JMP     pp8rv2
pp8fix1:
	KORW    K1, K2, K1
	VSQRTPS Z11, Z13
	VDIVPS  Z13, Z15, Z13
	VMOVAPS Z13, K1, Z12
	JMP     pp8rv1

// func m2pQuad8x2(b *laneBlock16, cols *[10]*float32, n int, out *[4]*float64, m int)
//
// m2pQuad4x2 at eight targets, two pairs per iteration like pp8x2,
// each lane still summing in list order, then one block for one more
// pair or the odd last cell, adding to the lanes of K5. The ten columns
// are broadcast pair by pair into the temporaries that use them and the
// constants are read as embedded broadcasts, all but magic, so the two
// pairs' temporaries fit beside the targets and sums: Z0-Z10 the first
// pair's, Z11-Z21 the second's, Z22-Z25 the sums, Z26-Z29 the targets
// and eps2, Z30 magic, Z31 a pair's masses. The last block loads its ten
// columns first, into Z0-Z2 and Z11-Z17. K1-K4 hold the lanes out of
// range, two masks per pair, K6 the block's real targets; AX, free once
// the block is loaded, the cells left.
TEXT ·m2pQuad8x2(SB), NOSPLIT, $0-40
	MOVQ b+0(FP), AX
	VMOVUPS 0(AX), Z26   // xi
	VMOVUPS 64(AX), Z27  // yi
	VMOVUPS 128(AX), Z28 // zi
	VMOVUPS 192(AX), Z29 // eps2
	VPBROADCASTD magic8<>(SB), Z30
	MOVQ m+32(FP), DX
	LEAQ lowMasks<>(SB), AX
	KMOVW (AX)(DX*2), K6
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
	MOVQ n+16(FP), AX
	JMP  q8next
q8chunk:
	MOVQ    $128, DX // foldK
	CMPQ    AX, DX
	CMOVQLT AX, DX // the chunk's length
	SUBQ    DX, AX
	LEAQ    (CX)(DX*4), CX // the columns from the chunk's end
	LEAQ    (SI)(DX*4), SI
	LEAQ    (DI)(DX*4), DI
	LEAQ    (R8)(DX*4), R8
	LEAQ    (R9)(DX*4), R9
	LEAQ    (R10)(DX*4), R10
	LEAQ    (R11)(DX*4), R11
	LEAQ    (R12)(DX*4), R12
	LEAQ    (R13)(DX*4), R13
	LEAQ    (BX)(DX*4), BX
	NEGQ    DX
	VPXORD Z22, Z22, Z22 // ax
	VPXORD Z23, Z23, Z23 // ay
	VPXORD Z24, Z24, Z24 // az
	VPXORD Z25, Z25, Z25 // p
	JMP    q8test2
	PCALIGN $64 // the loop head on a cache line, wherever the linker puts the function
q8loop2:
	VBROADCASTSD (CX)(DX*4), Z0
	VBROADCASTSD 8(CX)(DX*4), Z11
	VSUBPS  Z26, Z0, Z0 // da = cx - xi (the first pair; the second interleaved)
	VSUBPS  Z26, Z11, Z11
	VBROADCASTSD (SI)(DX*4), Z1
	VBROADCASTSD 8(SI)(DX*4), Z12
	VSUBPS  Z27, Z1, Z1 // db
	VSUBPS  Z27, Z12, Z12
	VBROADCASTSD (DI)(DX*4), Z2
	VBROADCASTSD 8(DI)(DX*4), Z13
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
	JNE     q8fix2
q8rv2:
	VMULPS  Z4, Z4, Z3 // rv2
	VMULPS  Z15, Z15, Z14
	VMULPS  Z3, Z4, Z5 // rv3
	VMULPS  Z14, Z15, Z16
	VMULPS  Z3, Z5, Z6 // rv5
	VMULPS  Z14, Z16, Z17
	VBROADCASTSD (R8)(DX*4), Z7
	VBROADCASTSD 8(R8)(DX*4), Z18
	VMULPS  Z0, Z7, Z7 // qxx*da
	VMULPS  Z11, Z18, Z18
	VBROADCASTSD (R11)(DX*4), Z8
	VBROADCASTSD 8(R11)(DX*4), Z19
	VFMADD231PS Z8, Z1, Z7 // + qxy*db
	VFMADD231PS Z19, Z12, Z18
	VBROADCASTSD (R12)(DX*4), Z9
	VBROADCASTSD 8(R12)(DX*4), Z20
	VFMADD231PS Z9, Z2, Z7 // qdx = ... + qxz*dc
	VFMADD231PS Z20, Z13, Z18
	VMULPS  Z0, Z8, Z8 // qxy*da
	VMULPS  Z11, Z19, Z19
	VBROADCASTSD (R9)(DX*4), Z10
	VBROADCASTSD 8(R9)(DX*4), Z21
	VFMADD231PS Z10, Z1, Z8 // + qyy*db
	VFMADD231PS Z21, Z12, Z19
	VBROADCASTSD (R13)(DX*4), Z10
	VBROADCASTSD 8(R13)(DX*4), Z21
	VFMADD231PS Z10, Z2, Z8 // qdy = ... + qyz*dc
	VFMADD231PS Z21, Z13, Z19
	VMULPS  Z0, Z9, Z9 // qxz*da
	VMULPS  Z11, Z20, Z20
	VFMADD231PS Z10, Z1, Z9 // + qyz*db
	VFMADD231PS Z21, Z12, Z20
	VBROADCASTSD (R10)(DX*4), Z10
	VBROADCASTSD 8(R10)(DX*4), Z21
	VFMADD231PS Z10, Z2, Z9 // qdz = ... + qzz*dc
	VFMADD231PS Z21, Z13, Z20
	VMULPS  Z7, Z0, Z10 // da*qdx
	VMULPS  Z18, Z11, Z21
	VFMADD231PS Z8, Z1, Z10 // + db*qdy
	VFMADD231PS Z19, Z12, Z21
	VFMADD231PS Z9, Z2, Z10 // dqd = ... + dc*qdz
	VFMADD231PS Z20, Z13, Z21
	VBROADCASTSD (BX)(DX*4), Z31
	VMULPS  Z31, Z5, Z5 // mono = cm*rv3
	VBROADCASTSD 8(BX)(DX*4), Z31
	VMULPS  Z31, Z16, Z16
	VMULPS  Z6, Z3, Z3 // rv7 = rv5*rv2
	VMULPS  Z17, Z14, Z14
	VMULPS.BCST c25x8<>(SB), Z3, Z3 // 2.5*rv7
	VMULPS.BCST c25x8<>(SB), Z14, Z14
	VFMADD231PS Z3, Z10, Z5 // mc = dqd*2.5*rv7 + mono
	VFMADD231PS Z14, Z21, Z16
	VFNMADD231PS Z6, Z7, Z22 // ax -= qdx*rv5, ax += mc*da: the first pair, then the second
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
	VBROADCASTSD (BX)(DX*4), Z3
	VFNMADD231PS Z4, Z3, Z25
	VMULPS.BCST negHalf8<>(SB), Z17, Z17
	VFMADD231PS Z17, Z21, Z25
	VBROADCASTSD 8(BX)(DX*4), Z14
	VFNMADD231PS Z15, Z14, Z25
	ADDQ    $4, DX
q8test2:
	CMPQ    DX, $-3 // two pairs start below the chunk's end less 3
	JLT     q8loop2
q8tail:
	CMPQ    DX, $-1
	JGT     q8fold
	JEQ     q8odd
	VBROADCASTSD (CX)(DX*4), Z0 // one more pair, in every lane
	VBROADCASTSD (SI)(DX*4), Z1
	VBROADCASTSD (DI)(DX*4), Z2
	VBROADCASTSD (BX)(DX*4), Z11 // cm
	VBROADCASTSD (R8)(DX*4), Z12 // qxx
	VBROADCASTSD (R9)(DX*4), Z13 // qyy
	VBROADCASTSD (R10)(DX*4), Z14 // qzz
	VBROADCASTSD (R11)(DX*4), Z15 // qxy
	VBROADCASTSD (R12)(DX*4), Z16 // qxz
	VBROADCASTSD (R13)(DX*4), Z17 // qyz
	KXNORW  K5, K5, K5
	JMP     q8one
q8odd:
	VBROADCASTSS (CX)(DX*4), Z0 // the odd last cell, in the even lanes
	VBROADCASTSS (SI)(DX*4), Z1
	VBROADCASTSS (DI)(DX*4), Z2
	VBROADCASTSS (BX)(DX*4), Z11 // cm
	VBROADCASTSS (R8)(DX*4), Z12 // qxx
	VBROADCASTSS (R9)(DX*4), Z13 // qyy
	VBROADCASTSS (R10)(DX*4), Z14 // qzz
	VBROADCASTSS (R11)(DX*4), Z15 // qxy
	VBROADCASTSS (R12)(DX*4), Z16 // qxz
	VBROADCASTSS (R13)(DX*4), Z17 // qyz
	KMOVW   evenLanes<>(SB), K5
q8one:
	VSUBPS  Z26, Z0, Z0
	VSUBPS  Z27, Z1, Z1
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
	JNE     q8fix1
q8rv1:
	VMULPS  Z4, Z4, Z3
	VMULPS  Z3, Z4, Z5
	VMULPS  Z3, Z5, Z6
	VMULPS  Z12, Z0, Z7
	VFMADD231PS Z15, Z1, Z7
	VFMADD231PS Z16, Z2, Z7
	VMULPS  Z15, Z0, Z8
	VFMADD231PS Z13, Z1, Z8
	VFMADD231PS Z17, Z2, Z8
	VMULPS  Z16, Z0, Z9
	VFMADD231PS Z17, Z1, Z9
	VFMADD231PS Z14, Z2, Z9
	VMULPS  Z7, Z0, Z10
	VFMADD231PS Z8, Z1, Z10
	VFMADD231PS Z9, Z2, Z10
	VMULPS  Z11, Z5, Z5
	VMULPS  Z6, Z3, Z3
	VMULPS.BCST c25x8<>(SB), Z3, Z3
	VFMADD231PS Z3, Z10, Z5
	VFNMADD231PS Z6, Z7, K5, Z22 // the sums, in the lanes of K5
	VFMADD231PS Z5, Z0, K5, Z22
	VFNMADD231PS Z6, Z8, K5, Z23
	VFMADD231PS Z5, Z1, K5, Z23
	VFNMADD231PS Z6, Z9, K5, Z24
	VFMADD231PS Z5, Z2, K5, Z24
	VMULPS.BCST negHalf8<>(SB), Z6, Z6
	VFMADD231PS Z6, Z10, K5, Z25
	VFNMADD231PS Z4, Z11, K5, Z25
	ADDQ    $2, DX
	JMP     q8tail
q8fold: // into targets [0, m) of out
	VMOVUPD evenIdx<>(SB), Z4
	VMOVUPD oddIdx<>(SB), Z5
	MOVQ    out+24(FP), DX
	MOVQ    0(DX), DX
	FOLD8(Z22, Y22, Z0, Z1, Y1, Z2, Z3, Z4, Z5, DX) // ax
	MOVQ    out+24(FP), DX
	MOVQ    8(DX), DX
	FOLD8(Z23, Y23, Z0, Z1, Y1, Z2, Z3, Z4, Z5, DX) // ay
	MOVQ    out+24(FP), DX
	MOVQ    16(DX), DX
	FOLD8(Z24, Y24, Z0, Z1, Y1, Z2, Z3, Z4, Z5, DX) // az
	MOVQ    out+24(FP), DX
	MOVQ    24(DX), DX
	FOLD8(Z25, Y25, Z0, Z1, Y1, Z2, Z3, Z4, Z5, DX) // pot
q8next:
	TESTQ   AX, AX
	JNE     q8chunk
	VZEROUPPER
	RET
q8fix2: // rv = 1/sqrt(r2) in the lanes out of range
	VSQRTPS Z3, Z5
	VBROADCASTSS one8<>(SB), Z6
	VDIVPS  Z5, Z6, Z5
	VMOVAPS Z5, K1, Z4
	VSQRTPS Z14, Z16
	VBROADCASTSS one8<>(SB), Z17
	VDIVPS  Z16, Z17, Z16
	VMOVAPS Z16, K3, Z15
	JMP     q8rv2
q8fix1:
	KORW    K1, K2, K1
	VSQRTPS Z3, Z5
	VBROADCASTSS one8<>(SB), Z6
	VDIVPS  Z5, Z6, Z5
	VMOVAPS Z5, K1, Z4
	JMP     q8rv1

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

// The list build's lane routines (AVX-512F): runs8 converts opened
// leaves' bodies, cells8 gathers accepted cells, each the Go loop of
// kernel.go (addRunsGo, addCellsGo) bit for bit. Only float64 subtracts
// of the origin and VCVTPD2PS roundings touch the values, as
// float32(x - o) and float32(x) do in Go; the rest is data movement.

// runs8's constants: the origin pattern of the three ZMM loads of
// eight positions (x y z x y z x y, z x y ..., y z x ...), the lanes
// of x, y and z in the 24 floats those loads round to, and per block
// length r = 0...8 four opmasks: the first r lanes, and the first 3r
// lanes eight to each of the three position loads.
DATA runO0<>+0(SB)/8, $0
DATA runO0<>+8(SB)/8, $1
DATA runO0<>+16(SB)/8, $2
DATA runO0<>+24(SB)/8, $0
DATA runO0<>+32(SB)/8, $1
DATA runO0<>+40(SB)/8, $2
DATA runO0<>+48(SB)/8, $0
DATA runO0<>+56(SB)/8, $1
GLOBL runO0<>(SB), RODATA|NOPTR, $64
DATA runO1<>+0(SB)/8, $2
DATA runO1<>+8(SB)/8, $0
DATA runO1<>+16(SB)/8, $1
DATA runO1<>+24(SB)/8, $2
DATA runO1<>+32(SB)/8, $0
DATA runO1<>+40(SB)/8, $1
DATA runO1<>+48(SB)/8, $2
DATA runO1<>+56(SB)/8, $0
GLOBL runO1<>(SB), RODATA|NOPTR, $64
DATA runO2<>+0(SB)/8, $1
DATA runO2<>+8(SB)/8, $2
DATA runO2<>+16(SB)/8, $0
DATA runO2<>+24(SB)/8, $1
DATA runO2<>+32(SB)/8, $2
DATA runO2<>+40(SB)/8, $0
DATA runO2<>+48(SB)/8, $1
DATA runO2<>+56(SB)/8, $2
GLOBL runO2<>(SB), RODATA|NOPTR, $64
DATA runX<>+0(SB)/4, $0
DATA runX<>+4(SB)/4, $3
DATA runX<>+8(SB)/4, $6
DATA runX<>+12(SB)/4, $9
DATA runX<>+16(SB)/4, $12
DATA runX<>+20(SB)/4, $15
DATA runX<>+24(SB)/4, $18
DATA runX<>+28(SB)/4, $21
DATA runX<>+32(SB)/4, $0
DATA runX<>+36(SB)/4, $0
DATA runX<>+40(SB)/4, $0
DATA runX<>+44(SB)/4, $0
DATA runX<>+48(SB)/4, $0
DATA runX<>+52(SB)/4, $0
DATA runX<>+56(SB)/4, $0
DATA runX<>+60(SB)/4, $0
GLOBL runX<>(SB), RODATA|NOPTR, $64
DATA runY<>+0(SB)/4, $1
DATA runY<>+4(SB)/4, $4
DATA runY<>+8(SB)/4, $7
DATA runY<>+12(SB)/4, $10
DATA runY<>+16(SB)/4, $13
DATA runY<>+20(SB)/4, $16
DATA runY<>+24(SB)/4, $19
DATA runY<>+28(SB)/4, $22
DATA runY<>+32(SB)/4, $0
DATA runY<>+36(SB)/4, $0
DATA runY<>+40(SB)/4, $0
DATA runY<>+44(SB)/4, $0
DATA runY<>+48(SB)/4, $0
DATA runY<>+52(SB)/4, $0
DATA runY<>+56(SB)/4, $0
DATA runY<>+60(SB)/4, $0
GLOBL runY<>(SB), RODATA|NOPTR, $64
DATA runZ<>+0(SB)/4, $2
DATA runZ<>+4(SB)/4, $5
DATA runZ<>+8(SB)/4, $8
DATA runZ<>+12(SB)/4, $11
DATA runZ<>+16(SB)/4, $14
DATA runZ<>+20(SB)/4, $17
DATA runZ<>+24(SB)/4, $20
DATA runZ<>+28(SB)/4, $23
DATA runZ<>+32(SB)/4, $0
DATA runZ<>+36(SB)/4, $0
DATA runZ<>+40(SB)/4, $0
DATA runZ<>+44(SB)/4, $0
DATA runZ<>+48(SB)/4, $0
DATA runZ<>+52(SB)/4, $0
DATA runZ<>+56(SB)/4, $0
DATA runZ<>+60(SB)/4, $0
GLOBL runZ<>(SB), RODATA|NOPTR, $64
DATA runMasks<>+0(SB)/2, $0x00
DATA runMasks<>+2(SB)/2, $0x00
DATA runMasks<>+4(SB)/2, $0x00
DATA runMasks<>+6(SB)/2, $0x00
DATA runMasks<>+8(SB)/2, $0x01
DATA runMasks<>+10(SB)/2, $0x07
DATA runMasks<>+12(SB)/2, $0x00
DATA runMasks<>+14(SB)/2, $0x00
DATA runMasks<>+16(SB)/2, $0x03
DATA runMasks<>+18(SB)/2, $0x3f
DATA runMasks<>+20(SB)/2, $0x00
DATA runMasks<>+22(SB)/2, $0x00
DATA runMasks<>+24(SB)/2, $0x07
DATA runMasks<>+26(SB)/2, $0xff
DATA runMasks<>+28(SB)/2, $0x01
DATA runMasks<>+30(SB)/2, $0x00
DATA runMasks<>+32(SB)/2, $0x0f
DATA runMasks<>+34(SB)/2, $0xff
DATA runMasks<>+36(SB)/2, $0x0f
DATA runMasks<>+38(SB)/2, $0x00
DATA runMasks<>+40(SB)/2, $0x1f
DATA runMasks<>+42(SB)/2, $0xff
DATA runMasks<>+44(SB)/2, $0x7f
DATA runMasks<>+46(SB)/2, $0x00
DATA runMasks<>+48(SB)/2, $0x3f
DATA runMasks<>+50(SB)/2, $0xff
DATA runMasks<>+52(SB)/2, $0xff
DATA runMasks<>+54(SB)/2, $0x03
DATA runMasks<>+56(SB)/2, $0x7f
DATA runMasks<>+58(SB)/2, $0xff
DATA runMasks<>+60(SB)/2, $0xff
DATA runMasks<>+62(SB)/2, $0x1f
DATA runMasks<>+64(SB)/2, $0xff
DATA runMasks<>+66(SB)/2, $0xff
DATA runMasks<>+68(SB)/2, $0xff
DATA runMasks<>+70(SB)/2, $0xff
GLOBL runMasks<>(SB), RODATA|NOPTR, $72

// cells8's constants: the two stages of the 8x8 transpose (four
// fields of four cells from two row pairs, then two whole columns from
// two of those), and the split of the last two moments' pairs.
DATA cellT1a<>+0(SB)/4, $0
DATA cellT1a<>+4(SB)/4, $8
DATA cellT1a<>+8(SB)/4, $16
DATA cellT1a<>+12(SB)/4, $24
DATA cellT1a<>+16(SB)/4, $1
DATA cellT1a<>+20(SB)/4, $9
DATA cellT1a<>+24(SB)/4, $17
DATA cellT1a<>+28(SB)/4, $25
DATA cellT1a<>+32(SB)/4, $2
DATA cellT1a<>+36(SB)/4, $10
DATA cellT1a<>+40(SB)/4, $18
DATA cellT1a<>+44(SB)/4, $26
DATA cellT1a<>+48(SB)/4, $3
DATA cellT1a<>+52(SB)/4, $11
DATA cellT1a<>+56(SB)/4, $19
DATA cellT1a<>+60(SB)/4, $27
GLOBL cellT1a<>(SB), RODATA|NOPTR, $64
DATA cellT1b<>+0(SB)/4, $4
DATA cellT1b<>+4(SB)/4, $12
DATA cellT1b<>+8(SB)/4, $20
DATA cellT1b<>+12(SB)/4, $28
DATA cellT1b<>+16(SB)/4, $5
DATA cellT1b<>+20(SB)/4, $13
DATA cellT1b<>+24(SB)/4, $21
DATA cellT1b<>+28(SB)/4, $29
DATA cellT1b<>+32(SB)/4, $6
DATA cellT1b<>+36(SB)/4, $14
DATA cellT1b<>+40(SB)/4, $22
DATA cellT1b<>+44(SB)/4, $30
DATA cellT1b<>+48(SB)/4, $7
DATA cellT1b<>+52(SB)/4, $15
DATA cellT1b<>+56(SB)/4, $23
DATA cellT1b<>+60(SB)/4, $31
GLOBL cellT1b<>(SB), RODATA|NOPTR, $64
DATA cellT2a<>+0(SB)/4, $0
DATA cellT2a<>+4(SB)/4, $1
DATA cellT2a<>+8(SB)/4, $2
DATA cellT2a<>+12(SB)/4, $3
DATA cellT2a<>+16(SB)/4, $16
DATA cellT2a<>+20(SB)/4, $17
DATA cellT2a<>+24(SB)/4, $18
DATA cellT2a<>+28(SB)/4, $19
DATA cellT2a<>+32(SB)/4, $4
DATA cellT2a<>+36(SB)/4, $5
DATA cellT2a<>+40(SB)/4, $6
DATA cellT2a<>+44(SB)/4, $7
DATA cellT2a<>+48(SB)/4, $20
DATA cellT2a<>+52(SB)/4, $21
DATA cellT2a<>+56(SB)/4, $22
DATA cellT2a<>+60(SB)/4, $23
GLOBL cellT2a<>(SB), RODATA|NOPTR, $64
DATA cellT2b<>+0(SB)/4, $8
DATA cellT2b<>+4(SB)/4, $9
DATA cellT2b<>+8(SB)/4, $10
DATA cellT2b<>+12(SB)/4, $11
DATA cellT2b<>+16(SB)/4, $24
DATA cellT2b<>+20(SB)/4, $25
DATA cellT2b<>+24(SB)/4, $26
DATA cellT2b<>+28(SB)/4, $27
DATA cellT2b<>+32(SB)/4, $12
DATA cellT2b<>+36(SB)/4, $13
DATA cellT2b<>+40(SB)/4, $14
DATA cellT2b<>+44(SB)/4, $15
DATA cellT2b<>+48(SB)/4, $28
DATA cellT2b<>+52(SB)/4, $29
DATA cellT2b<>+56(SB)/4, $30
DATA cellT2b<>+60(SB)/4, $31
GLOBL cellT2b<>(SB), RODATA|NOPTR, $64
DATA cellPair<>+0(SB)/4, $0
DATA cellPair<>+4(SB)/4, $2
DATA cellPair<>+8(SB)/4, $4
DATA cellPair<>+12(SB)/4, $6
DATA cellPair<>+16(SB)/4, $8
DATA cellPair<>+20(SB)/4, $10
DATA cellPair<>+24(SB)/4, $12
DATA cellPair<>+28(SB)/4, $14
DATA cellPair<>+32(SB)/4, $1
DATA cellPair<>+36(SB)/4, $3
DATA cellPair<>+40(SB)/4, $5
DATA cellPair<>+44(SB)/4, $7
DATA cellPair<>+48(SB)/4, $9
DATA cellPair<>+52(SB)/4, $11
DATA cellPair<>+56(SB)/4, $13
DATA cellPair<>+60(SB)/4, $15
GLOBL cellPair<>(SB), RODATA|NOPTR, $64

// func runs8(runs *Run, nr int, o *vec.V3, cols *[4]*float32, at int)
//
// SI walks the runs (48 bytes each: Pos's pointer and length, Mass's
// pointer at 24), BX a run's positions, R13 its masses, R12 its bodies
// left; R8-R11 the columns sx sy sz sm from row at. Each block of r <=
// 8 bodies loads its 3r position doubles and r masses under masks
// (nothing past the run is read), subtracts the origin pattern, rounds,
// joins the first two float32 rows into one register and picks x, y and
// z out of the 24 floats with VPERMI2PS, and stores r lanes of each.
// nr must be at least 1: the run loop tests its count at the end.
TEXT ·runs8(SB), NOSPLIT, $0-40
	MOVQ runs+0(FP), SI
	MOVQ nr+8(FP), CX
	MOVQ o+16(FP), AX
	MOVQ cols+24(FP), DI
	MOVQ at+32(FP), DX
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	LEAQ (R8)(DX*4), R8
	LEAQ (R9)(DX*4), R9
	LEAQ (R10)(DX*4), R10
	LEAQ (R11)(DX*4), R11
	LEAQ runMasks<>(SB), DI
	KMOVW 24(DI), K1 // r = 3: the first three lanes
	VMOVUPD.Z (AX), K1, Z23 // ox oy oz
	VMOVDQU64 runO0<>(SB), Z20
	VMOVDQU64 runO1<>(SB), Z21
	VMOVDQU64 runO2<>(SB), Z22
	VPERMPD Z23, Z20, Z20
	VPERMPD Z23, Z21, Z21
	VPERMPD Z23, Z22, Z22
	VMOVDQU32 runX<>(SB), Z24
	VMOVDQU32 runY<>(SB), Z25
	VMOVDQU32 runZ<>(SB), Z26

runloop:
	MOVQ 0(SI), BX
	MOVQ 8(SI), R12
	MOVQ 24(SI), R13

blockloop:
	TESTQ R12, R12
	JEQ   nextrun
	MOVQ  $8, AX
	CMPQ  R12, AX
	CMOVQLT R12, AX // r = min(8, bodies left)
	KMOVW 0(DI)(AX*8), K1
	KMOVW 2(DI)(AX*8), K2
	KMOVW 4(DI)(AX*8), K3
	KMOVW 6(DI)(AX*8), K4
	VMOVUPD.Z 0(BX), K2, Z0
	VMOVUPD.Z 64(BX), K3, Z1
	VMOVUPD.Z 128(BX), K4, Z2
	VMOVUPD.Z 0(R13), K1, Z3
	VSUBPD Z20, Z0, Z0
	VSUBPD Z21, Z1, Z1
	VSUBPD Z22, Z2, Z2
	VCVTPD2PS Z0, Y0
	VCVTPD2PS Z1, Y1
	VCVTPD2PS Z2, Y2
	VCVTPD2PS Z3, Y3
	VINSERTF64X4 $1, Y1, Z0, Z0 // the first 16 of the 24 floats; Z2 the last 8
	VMOVAPS   Z24, Z5
	VPERMI2PS Z2, Z0, Z5
	VMOVAPS   Z25, Z6
	VPERMI2PS Z2, Z0, Z6
	VMOVAPS   Z26, Z7
	VPERMI2PS Z2, Z0, Z7
	VMOVUPS Z5, K1, (R8)
	VMOVUPS Z6, K1, (R9)
	VMOVUPS Z7, K1, (R10)
	VMOVUPS Z3, K1, (R11)
	LEAQ (R8)(AX*4), R8
	LEAQ (R9)(AX*4), R9
	LEAQ (R10)(AX*4), R10
	LEAQ (R11)(AX*4), R11
	LEAQ (R13)(AX*8), R13
	LEAQ (AX)(AX*2), DX
	LEAQ (BX)(DX*8), BX
	SUBQ AX, R12
	JMP  blockloop

nextrun:
	ADDQ $48, SI
	DECQ CX
	JNZ  runloop
	VZEROUPPER
	RET

// func cells8(cells **Multipole, n int, o *vec.V3, cols *[10]*float32, at int)
//
// Per block of eight cells: Zi = cell i's M, COM and Q.XX...Q.XY, the
// origin subtracted from lanes 1-3 only (K1), rounded into Yi; its
// Q.XZ, Q.YZ pair loaded into lanes 2(i%4), 2(i%4)+1 of Z16 (i < 4) or
// Z17 (K2-K5: the masked load is addressed 16(i%4) bytes early, so the
// pair lands in those lanes, and reads nothing else). The rows are
// joined in pairs (Z0 = rows 0|1, Z2 = 2|3, Z4 = 4|5, Z6 = 6|7), and two
// rounds of VPERMI2PS transpose them: fields 0-3 and 4-7 of cells 0-3
// (Z8, Z9) and of cells 4-7 (Z10, Z11), then two whole columns a
// register (Z12-Z15); the pairs' floats are split into the last two
// columns (Z16). DX is the row, SI the next eight cell pointers.
TEXT ·cells8(SB), NOSPLIT, $0-40
	MOVQ cells+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ o+16(FP), AX
	MOVQ cols+24(FP), DI
	MOVQ at+32(FP), DX
	MOVW $0x0e, BX
	KMOVW BX, K1
	MOVW $0x03, BX
	KMOVW BX, K2
	MOVW $0x0c, BX
	KMOVW BX, K3
	MOVW $0x30, BX
	KMOVW BX, K4
	MOVW $0xc0, BX
	KMOVW BX, K5
	VMOVUPD.Z -8(AX), K1, Z30 // 0 ox oy oz 0 0 0 0
	VMOVDQU32 cellT1a<>(SB), Z24
	VMOVDQU32 cellT1b<>(SB), Z25
	VMOVDQU32 cellT2a<>(SB), Z26
	VMOVDQU32 cellT2b<>(SB), Z27
	VMOVDQU32 cellPair<>(SB), Z28

cellloop:
	MOVQ 0(SI), AX
	VMOVUPD (AX), Z0
	VSUBPD Z30, Z0, K1, Z0
	VCVTPD2PS Z0, Y0
	VMOVUPD.Z 64(AX), K2, Z16
	MOVQ 8(SI), AX
	VMOVUPD (AX), Z1
	VSUBPD Z30, Z1, K1, Z1
	VCVTPD2PS Z1, Y1
	VMOVUPD 48(AX), K3, Z16
	MOVQ 16(SI), AX
	VMOVUPD (AX), Z2
	VSUBPD Z30, Z2, K1, Z2
	VCVTPD2PS Z2, Y2
	VMOVUPD 32(AX), K4, Z16
	MOVQ 24(SI), AX
	VMOVUPD (AX), Z3
	VSUBPD Z30, Z3, K1, Z3
	VCVTPD2PS Z3, Y3
	VMOVUPD 16(AX), K5, Z16
	MOVQ 32(SI), AX
	VMOVUPD (AX), Z4
	VSUBPD Z30, Z4, K1, Z4
	VCVTPD2PS Z4, Y4
	VMOVUPD.Z 64(AX), K2, Z17
	MOVQ 40(SI), AX
	VMOVUPD (AX), Z5
	VSUBPD Z30, Z5, K1, Z5
	VCVTPD2PS Z5, Y5
	VMOVUPD 48(AX), K3, Z17
	MOVQ 48(SI), AX
	VMOVUPD (AX), Z6
	VSUBPD Z30, Z6, K1, Z6
	VCVTPD2PS Z6, Y6
	VMOVUPD 32(AX), K4, Z17
	MOVQ 56(SI), AX
	VMOVUPD (AX), Z7
	VSUBPD Z30, Z7, K1, Z7
	VCVTPD2PS Z7, Y7
	VMOVUPD 16(AX), K5, Z17
	VINSERTF64X4 $1, Y1, Z0, Z0
	VINSERTF64X4 $1, Y3, Z2, Z2
	VINSERTF64X4 $1, Y5, Z4, Z4
	VINSERTF64X4 $1, Y7, Z6, Z6
	VMOVAPS   Z24, Z8
	VPERMI2PS Z2, Z0, Z8
	VMOVAPS   Z25, Z9
	VPERMI2PS Z2, Z0, Z9
	VMOVAPS   Z24, Z10
	VPERMI2PS Z6, Z4, Z10
	VMOVAPS   Z25, Z11
	VPERMI2PS Z6, Z4, Z11
	VMOVAPS   Z26, Z12
	VPERMI2PS Z10, Z8, Z12
	VMOVAPS   Z27, Z13
	VPERMI2PS Z10, Z8, Z13
	VMOVAPS   Z26, Z14
	VPERMI2PS Z11, Z9, Z14
	VMOVAPS   Z27, Z15
	VPERMI2PS Z11, Z9, Z15
	VCVTPD2PS Z16, Y16
	VCVTPD2PS Z17, Y17
	VINSERTF64X4 $1, Y17, Z16, Z16
	VPERMPS Z16, Z28, Z16
	MOVQ 0(DI), AX
	VMOVUPS Y12, (AX)(DX*4)
	MOVQ 8(DI), AX
	VEXTRACTF64X4 $1, Z12, (AX)(DX*4)
	MOVQ 16(DI), AX
	VMOVUPS Y13, (AX)(DX*4)
	MOVQ 24(DI), AX
	VEXTRACTF64X4 $1, Z13, (AX)(DX*4)
	MOVQ 32(DI), AX
	VMOVUPS Y14, (AX)(DX*4)
	MOVQ 40(DI), AX
	VEXTRACTF64X4 $1, Z14, (AX)(DX*4)
	MOVQ 48(DI), AX
	VMOVUPS Y15, (AX)(DX*4)
	MOVQ 56(DI), AX
	VEXTRACTF64X4 $1, Z15, (AX)(DX*4)
	MOVQ 64(DI), AX
	VMOVUPS Y16, (AX)(DX*4)
	MOVQ 72(DI), AX
	VEXTRACTF64X4 $1, Z16, (AX)(DX*4)
	ADDQ $64, SI
	ADDQ $8, DX
	SUBQ $8, CX
	JNZ  cellloop
	VZEROUPPER
	RET
