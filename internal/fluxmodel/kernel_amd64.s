#include "textflag.h"

// AVX kernel column (see kernelLanes in fluxmodel.go). YMM lane l holds
// point 4b+l of block b. Every lane does kernelLoop's fast-path operations
// in its order — VSUBPD for dx and dy, VDIVPD for each slab quotient,
// VMULPD, VADDPD and VSQRTPD for d, and VMULPD/VSUBPD for d·(τ²−1)·0.5 —
// and no fused multiply-add is used, so every fast lane has the Go loop's
// bits (·0.5 and /2 round the same exact value). Lanes that leave the
// fast path get a bit in the returned mask and are recomputed in Go.

// Constants, one per lane.
DATA kernelOne<>+0(SB)/8, $0x3ff0000000000000
DATA kernelOne<>+8(SB)/8, $0x3ff0000000000000
DATA kernelOne<>+16(SB)/8, $0x3ff0000000000000
DATA kernelOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL kernelOne<>(SB), RODATA|NOPTR, $32

DATA kernelHalf<>+0(SB)/8, $0x3fe0000000000000
DATA kernelHalf<>+8(SB)/8, $0x3fe0000000000000
DATA kernelHalf<>+16(SB)/8, $0x3fe0000000000000
DATA kernelHalf<>+24(SB)/8, $0x3fe0000000000000
GLOBL kernelHalf<>(SB), RODATA|NOPTR, $32

DATA kernelInf<>+0(SB)/8, $0x7ff0000000000000
DATA kernelInf<>+8(SB)/8, $0x7ff0000000000000
DATA kernelInf<>+16(SB)/8, $0x7ff0000000000000
DATA kernelInf<>+24(SB)/8, $0x7ff0000000000000
GLOBL kernelInf<>(SB), RODATA|NOPTR, $32

DATA kernelMaxFloat<>+0(SB)/8, $0x7fefffffffffffff
DATA kernelMaxFloat<>+8(SB)/8, $0x7fefffffffffffff
DATA kernelMaxFloat<>+16(SB)/8, $0x7fefffffffffffff
DATA kernelMaxFloat<>+24(SB)/8, $0x7fefffffffffffff
GLOBL kernelMaxFloat<>(SB), RODATA|NOPTR, $32

DATA kernelZero<>+0(SB)/8, $0
DATA kernelZero<>+8(SB)/8, $0
DATA kernelZero<>+16(SB)/8, $0
DATA kernelZero<>+24(SB)/8, $0
GLOBL kernelZero<>(SB), RODATA|NOPTR, $32

// VCMPPD predicates (ordered ones are false on NaN, EQ_UQ is true).
#define GE_OQ $0x1D
#define LE_OQ $0x12
#define LT_OQ $0x11
#define EQ_UQ $0x08

// func kernelLanesAVX(pts []geom.Point, dst []float64, a *laneArgs) (slow uint64)
TEXT ·kernelLanesAVX(SB), NOSPLIT, $0-64
	MOVQ         pts_base+0(FP), SI
	MOVQ         pts_len+8(FP), BX
	MOVQ         dst_base+24(FP), DI
	MOVQ         a+48(FP), R8
	VBROADCASTSD 0(R8), Y5       // sink X
	VBROADCASTSD 8(R8), Y6       // sink Y
	VBROADCASTSD 16(R8), Y7      // field Min.X
	VBROADCASTSD 24(R8), Y8      // field Max.X
	VBROADCASTSD 32(R8), Y9      // field Min.Y
	VBROADCASTSD 40(R8), Y10     // field Max.Y
	VBROADCASTSD 48(R8), Y11     // xhi
	VBROADCASTSD 56(R8), Y12     // xlo
	VBROADCASTSD 64(R8), Y13     // yhi
	VBROADCASTSD 72(R8), Y14     // ylo
	VBROADCASTSD 80(R8), Y15     // MinDist
	XORQ         R9, R9          // slow-lane mask
	XORQ         CX, CX          // point index, also the block's bit offset
	TESTQ        BX, BX
	JZ           lanesDone

lanesLoop:
	// Split four interleaved points into X = (x0 x1 x2 x3), Y = (y0 ...).
	VMOVUPD     0(SI), X0
	VINSERTF128 $1, 32(SI), Y0, Y0 // x0 y0 | x2 y2
	VMOVUPD     16(SI), X1
	VINSERTF128 $1, 48(SI), Y1, Y1 // x1 y1 | x3 y3
	VUNPCKHPD   Y1, Y0, Y2         // Y
	VUNPCKLPD   Y1, Y0, Y0         // X

	// Field containment, kept as a bit mask in R10.
	VCMPPD    GE_OQ, Y7, Y0, Y3
	VCMPPD    LE_OQ, Y8, Y0, Y4
	VANDPD    Y4, Y3, Y3
	VCMPPD    GE_OQ, Y9, Y2, Y4
	VANDPD    Y4, Y3, Y3
	VCMPPD    LE_OQ, Y10, Y2, Y4
	VANDPD    Y4, Y3, Y3
	VMOVMSKPD Y3, R10

	VSUBPD Y5, Y0, Y0 // dx
	VSUBPD Y6, Y2, Y2 // dy

	// tx = (dx < 0 ? xlo : xhi) / dx, or +Inf where dx is zero or NaN.
	VBLENDVPD Y0, Y12, Y11, Y3
	VDIVPD    Y0, Y3, Y3
	VCMPPD    EQ_UQ, kernelZero<>(SB), Y0, Y4
	VBLENDVPD Y4, kernelInf<>(SB), Y3, Y3

	// ty likewise from dy; τ = ty < tx ? ty : tx.
	VBLENDVPD Y2, Y14, Y13, Y4
	VDIVPD    Y2, Y4, Y4
	VCMPPD    EQ_UQ, kernelZero<>(SB), Y2, Y1
	VBLENDVPD Y1, kernelInf<>(SB), Y4, Y4
	VCMPPD    LT_OQ, Y3, Y4, Y1
	VBLENDVPD Y1, Y4, Y3, Y3 // τ

	// d = sqrt(dx·dx + dy·dy).
	VMULPD  Y0, Y0, Y0
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VSQRTPD Y0, Y0

	// Fast path: contained, d ≥ MinDist, 1 ≤ τ ≤ MaxFloat64.
	VCMPPD    GE_OQ, Y15, Y0, Y1
	VCMPPD    GE_OQ, kernelOne<>(SB), Y3, Y2
	VANDPD    Y2, Y1, Y1
	VCMPPD    LE_OQ, kernelMaxFloat<>(SB), Y3, Y2
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, R11
	ANDQ      R10, R11
	XORQ      $15, R11
	SHLQ      CX, R11
	ORQ       R11, R9

	// d·(τ·τ − 1)·0.5
	VMULPD  Y3, Y3, Y3
	VSUBPD  kernelOne<>(SB), Y3, Y3
	VMULPD  Y3, Y0, Y3
	VMULPD  kernelHalf<>(SB), Y3, Y3
	VMOVUPD Y3, 0(DI)

	ADDQ $64, SI
	ADDQ $32, DI
	ADDQ $4, CX
	CMPQ CX, BX
	JB   lanesLoop

lanesDone:
	MOVQ       R9, slow+56(FP)
	VZEROUPPER
	RET
