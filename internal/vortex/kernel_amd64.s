// AVX2 forms of the loops in kernel.go: four targets in the four
// lanes of a YMM register, each source broadcast to all of them. Only
// lane-wise VSUBPD/VMULPD/VADDPD/VSQRTPD/VDIVPD touch the data, in the
// order and association the Go loops write, with no fused
// multiply-add and no sum across lanes -- each lane is the scalar
// loop, bit for bit. Operand order is Go's: OP b, a, dst is dst = a OP b.
//
// Register plan, both kernels: Y10-Y15 the six running sums (ux uy uz
// dax day daz), Y0-Y9 temporaries. The targets, their strengths and
// the constants are read from the lane block as memory operands
// (byte offsets: x 0, y 32, z 64, alpha 96/128/160, s2 192, 2.5 s2
// 224, 3.5 s2 256, -3 288, 1 320, 1/(4 pi) 352).

#include "textflag.h"

// func velPP4(tg *vLanes, cols *[6]*float64, n int, acc *vSums)
//
// The Go loop's `if r2 == 0 { continue }` is the mask Y9 (lanes where
// r2 == 0): every new sum is blended with the old one under it, so a
// masked lane's sums keep their bits whatever the skipped term was
// (a NaN when s2 = 0, or a -0 that would turn a +0 sum's sign).
TEXT ·velPP4(SB), NOSPLIT, $0-32
	MOVQ tg+0(FP), AX
	MOVQ cols+8(FP), DX
	MOVQ 0(DX), SI   // sx
	MOVQ 8(DX), DI   // sy
	MOVQ 16(DX), R8  // sz
	MOVQ 24(DX), R9  // sax
	MOVQ 32(DX), R10 // say
	MOVQ 40(DX), R11 // saz
	MOVQ n+16(FP), CX
	MOVQ acc+24(FP), BX
	VMOVUPD 0(BX), Y10
	VMOVUPD 32(BX), Y11
	VMOVUPD 64(BX), Y12
	VMOVUPD 96(BX), Y13
	VMOVUPD 128(BX), Y14
	VMOVUPD 160(BX), Y15
	XORQ    DX, DX
	JMP     pptest
pploop:
	VMOVUPD 0(AX), Y0
	VBROADCASTSD (SI)(DX*8), Y1
	VSUBPD  Y1, Y0, Y0       // rx = xp - sx
	VMOVUPD 32(AX), Y1
	VBROADCASTSD (DI)(DX*8), Y2
	VSUBPD  Y2, Y1, Y1       // ry
	VMOVUPD 64(AX), Y2
	VBROADCASTSD (R8)(DX*8), Y3
	VSUBPD  Y3, Y2, Y2       // rz
	VMULPD  Y0, Y0, Y3
	VMULPD  Y1, Y1, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  Y2, Y2, Y4
	VADDPD  Y4, Y3, Y3       // r2
	VXORPD  Y9, Y9, Y9
	VCMPPD  $0, Y9, Y3, Y9   // mask = (r2 == 0)
	VADDPD  192(AX), Y3, Y4  // d2 = r2 + s2
	VSQRTPD Y4, Y5           // d
	VMULPD  Y4, Y4, Y6
	VMULPD  Y5, Y6, Y6       // d2*d2*d
	VMOVUPD 320(AX), Y5
	VDIVPD  Y6, Y5, Y5       // inv5 = 1/(d2*d2*d)
	VADDPD  224(AX), Y3, Y6  // r2 + 2.5 s2
	VMULPD  Y5, Y6, Y6       // g
	VADDPD  256(AX), Y3, Y3  // r2 + 3.5 s2
	VMULPD  288(AX), Y3, Y3  // -3*(...)
	VMULPD  Y5, Y3, Y3       // *inv5
	VDIVPD  Y4, Y3, Y3       // gp = .../d2
	VMULPD  352(AX), Y6, Y6  // fg = g/(4 pi)
	VMULPD  352(AX), Y3, Y3  // gp/(4 pi)
	VMULPD  96(AX), Y0, Y4   // apx*rx
	VMULPD  128(AX), Y1, Y5  // apy*ry
	VADDPD  Y5, Y4, Y4
	VMULPD  160(AX), Y2, Y5  // apz*rz
	VADDPD  Y5, Y4, Y4
	VMULPD  Y4, Y3, Y3       // fs
	VBROADCASTSD (R11)(DX*8), Y7 // aqz
	VMULPD  Y7, Y1, Y4       // ry*aqz
	VBROADCASTSD (R10)(DX*8), Y8 // aqy
	VMULPD  Y8, Y2, Y5       // rz*aqy
	VSUBPD  Y5, Y4, Y4       // rxax
	VMULPD  Y8, Y0, Y5       // rx*aqy
	VBROADCASTSD (R9)(DX*8), Y8  // aqx
	VMULPD  Y8, Y1, Y1       // ry*aqx
	VSUBPD  Y1, Y5, Y5       // rxaz
	VMULPD  Y8, Y2, Y1       // rz*aqx
	VMULPD  Y7, Y0, Y2       // rx*aqz
	VSUBPD  Y2, Y1, Y1       // rxay
	VMULPD  Y6, Y4, Y0
	VSUBPD  Y0, Y10, Y0      // ux - rxax*fg
	VBLENDVPD Y9, Y10, Y0, Y10
	VMULPD  Y6, Y1, Y0
	VSUBPD  Y0, Y11, Y0      // uy - rxay*fg
	VBLENDVPD Y9, Y11, Y0, Y11
	VMULPD  Y6, Y5, Y0
	VSUBPD  Y0, Y12, Y0      // uz - rxaz*fg
	VBLENDVPD Y9, Y12, Y0, Y12
	VMULPD  128(AX), Y7, Y0  // apy*aqz
	VBROADCASTSD (R10)(DX*8), Y2 // aqy
	VMULPD  160(AX), Y2, Y2  // apz*aqy
	VSUBPD  Y2, Y0, Y0       // cxx
	VMULPD  Y6, Y0, Y0
	VSUBPD  Y0, Y13, Y0      // dax - cxx*fg
	VMULPD  Y3, Y4, Y2
	VSUBPD  Y2, Y0, Y0       // ... - rxax*fs
	VBLENDVPD Y9, Y13, Y0, Y13
	VMULPD  160(AX), Y8, Y0  // apz*aqx
	VMULPD  96(AX), Y7, Y2   // apx*aqz
	VSUBPD  Y2, Y0, Y0       // cxy
	VMULPD  Y6, Y0, Y0
	VSUBPD  Y0, Y14, Y0      // day - cxy*fg
	VMULPD  Y3, Y1, Y2
	VSUBPD  Y2, Y0, Y0       // ... - rxay*fs
	VBLENDVPD Y9, Y14, Y0, Y14
	VBROADCASTSD (R10)(DX*8), Y0 // aqy
	VMULPD  96(AX), Y0, Y0   // apx*aqy
	VMULPD  128(AX), Y8, Y2  // apy*aqx
	VSUBPD  Y2, Y0, Y0       // cxz
	VMULPD  Y6, Y0, Y0
	VSUBPD  Y0, Y15, Y0      // daz - cxz*fg
	VMULPD  Y3, Y5, Y2
	VSUBPD  Y2, Y0, Y0       // ... - rxaz*fs
	VBLENDVPD Y9, Y15, Y0, Y15
	INCQ    DX
pptest:
	CMPQ    DX, CX
	JLT     pploop
	VMOVUPD Y10, 0(BX)
	VMOVUPD Y11, 32(BX)
	VMOVUPD Y12, 64(BX)
	VMOVUPD Y13, 96(BX)
	VMOVUPD Y14, 128(BX)
	VMOVUPD Y15, 160(BX)
	VZEROUPPER
	RET

// func velMono4(tg *vLanes, cells *cellMoment, n int, acc *vSums)
//
// The same arithmetic with no skip; SI walks the cells, 48 bytes
// apiece: ASum x y z at 0 8 16, Centroid x y z at 24 32 40.
TEXT ·velMono4(SB), NOSPLIT, $0-32
	MOVQ tg+0(FP), AX
	MOVQ cells+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ acc+24(FP), BX
	VMOVUPD 0(BX), Y10
	VMOVUPD 32(BX), Y11
	VMOVUPD 64(BX), Y12
	VMOVUPD 96(BX), Y13
	VMOVUPD 128(BX), Y14
	VMOVUPD 160(BX), Y15
	JMP     monotest
monoloop:
	VMOVUPD 0(AX), Y0
	VBROADCASTSD 24(SI), Y1
	VSUBPD  Y1, Y0, Y0       // rx = xp - centroid x
	VMOVUPD 32(AX), Y1
	VBROADCASTSD 32(SI), Y2
	VSUBPD  Y2, Y1, Y1       // ry
	VMOVUPD 64(AX), Y2
	VBROADCASTSD 40(SI), Y3
	VSUBPD  Y3, Y2, Y2       // rz
	VMULPD  Y0, Y0, Y3
	VMULPD  Y1, Y1, Y4
	VADDPD  Y4, Y3, Y3
	VMULPD  Y2, Y2, Y4
	VADDPD  Y4, Y3, Y3       // r2
	VADDPD  192(AX), Y3, Y4  // d2 = r2 + s2
	VSQRTPD Y4, Y5           // d
	VMULPD  Y4, Y4, Y6
	VMULPD  Y5, Y6, Y6       // d2*d2*d
	VMOVUPD 320(AX), Y5
	VDIVPD  Y6, Y5, Y5       // inv5
	VADDPD  224(AX), Y3, Y6
	VMULPD  Y5, Y6, Y6       // g
	VADDPD  256(AX), Y3, Y3
	VMULPD  288(AX), Y3, Y3
	VMULPD  Y5, Y3, Y3
	VDIVPD  Y4, Y3, Y3       // gp
	VMULPD  352(AX), Y6, Y6  // fg
	VMULPD  352(AX), Y3, Y3
	VMULPD  96(AX), Y0, Y4
	VMULPD  128(AX), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  160(AX), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y4, Y3, Y3       // fs
	VBROADCASTSD 16(SI), Y7  // aqz
	VMULPD  Y7, Y1, Y4
	VBROADCASTSD 8(SI), Y8   // aqy
	VMULPD  Y8, Y2, Y5
	VSUBPD  Y5, Y4, Y4       // rxax
	VMULPD  Y8, Y0, Y5
	VBROADCASTSD 0(SI), Y8   // aqx
	VMULPD  Y8, Y1, Y1
	VSUBPD  Y1, Y5, Y5       // rxaz
	VMULPD  Y8, Y2, Y1
	VMULPD  Y7, Y0, Y2
	VSUBPD  Y2, Y1, Y1       // rxay
	VMULPD  Y6, Y4, Y0
	VSUBPD  Y0, Y10, Y10     // ux -= rxax*fg
	VMULPD  Y6, Y1, Y0
	VSUBPD  Y0, Y11, Y11
	VMULPD  Y6, Y5, Y0
	VSUBPD  Y0, Y12, Y12
	VMULPD  128(AX), Y7, Y0  // apy*aqz
	VBROADCASTSD 8(SI), Y2
	VMULPD  160(AX), Y2, Y2  // apz*aqy
	VSUBPD  Y2, Y0, Y0       // cxx
	VMULPD  Y6, Y0, Y0
	VSUBPD  Y0, Y13, Y13     // dax -= cxx*fg
	VMULPD  Y3, Y4, Y2
	VSUBPD  Y2, Y13, Y13     // dax -= rxax*fs
	VMULPD  160(AX), Y8, Y0  // apz*aqx
	VMULPD  96(AX), Y7, Y2   // apx*aqz
	VSUBPD  Y2, Y0, Y0       // cxy
	VMULPD  Y6, Y0, Y0
	VSUBPD  Y0, Y14, Y14
	VMULPD  Y3, Y1, Y2
	VSUBPD  Y2, Y14, Y14
	VBROADCASTSD 8(SI), Y0
	VMULPD  96(AX), Y0, Y0   // apx*aqy
	VMULPD  128(AX), Y8, Y2  // apy*aqx
	VSUBPD  Y2, Y0, Y0       // cxz
	VMULPD  Y6, Y0, Y0
	VSUBPD  Y0, Y15, Y15
	VMULPD  Y3, Y5, Y2
	VSUBPD  Y2, Y15, Y15
	ADDQ    $48, SI
	DECQ    CX
monotest:
	TESTQ   CX, CX
	JGT     monoloop
	VMOVUPD Y10, 0(BX)
	VMOVUPD Y11, 32(BX)
	VMOVUPD Y12, 64(BX)
	VMOVUPD Y13, 96(BX)
	VMOVUPD Y14, 128(BX)
	VMOVUPD Y15, 160(BX)
	VZEROUPPER
	RET
