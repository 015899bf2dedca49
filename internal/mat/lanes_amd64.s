#include "textflag.h"

// AVX lane kernels (see lanes.go). YMM lane l holds the sum of the
// indices i ≡ l (mod 4). Every lane does its Go loop's operations in its
// order: VMULPD rounds each product, VSUBPD each residual step and VADDPD
// each sum, and no fused multiply-add is used, so the lanes come out bit
// for bit. The length of the first slice is a multiple of four. Each
// kernel stores its accumulator whole into its [4]float64 result, lane 0
// at the lowest address, and clears the upper YMM halves before returning
// to SSE code.

// func dotLanesAVX(a, b []float64) (s [4]float64)
TEXT ·dotLanesAVX(SB), NOSPLIT, $0-80
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	TESTQ  CX, CX
	JZ     dotDone

dotLoop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      dotLoop

dotDone:
	VMOVUPD Y0, s_0+48(FP)
	VZEROUPPER
	RET

// func dot2LanesAVX(a, b0, b1 []float64) (s, t [4]float64)
TEXT ·dot2LanesAVX(SB), NOSPLIT, $0-136
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b0_base+24(FP), DI
	MOVQ   b1_base+48(FP), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX
	TESTQ  CX, CX
	JZ     dot2Done

dot2Loop:
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  (DI)(AX*8), Y2, Y3
	VMULPD  (R8)(AX*8), Y2, Y4
	VADDPD  Y3, Y0, Y0
	VADDPD  Y4, Y1, Y1
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      dot2Loop

dot2Done:
	VMOVUPD Y0, s_0+72(FP)
	VMOVUPD Y1, t_0+104(FP)
	VZEROUPPER
	RET

// func residLanes1AVX(b []float64, x0 float64, c0 []float64) (s [4]float64)
TEXT ·residLanes1AVX(SB), NOSPLIT, $0-88
	MOVQ         b_base+0(FP), SI
	MOVQ         b_len+8(FP), CX
	VBROADCASTSD x0+24(FP), Y8
	MOVQ         c0_base+32(FP), DI
	VXORPD       Y0, Y0, Y0
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           resid1Done

resid1Loop:
	VMULPD  (DI)(AX*8), Y8, Y1 // x0·c0
	VMOVUPD (SI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2         // r = b − x0·c0
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      resid1Loop

resid1Done:
	VMOVUPD Y0, s_0+56(FP)
	VZEROUPPER
	RET

// func residLanes2AVX(b []float64, x0, x1 float64, c0, c1 []float64) (s [4]float64)
TEXT ·residLanes2AVX(SB), NOSPLIT, $0-120
	MOVQ         b_base+0(FP), SI
	MOVQ         b_len+8(FP), CX
	VBROADCASTSD x0+24(FP), Y8
	VBROADCASTSD x1+32(FP), Y9
	MOVQ         c0_base+40(FP), DI
	MOVQ         c1_base+64(FP), R8
	VXORPD       Y0, Y0, Y0
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           resid2Done

resid2Loop:
	VMULPD  (DI)(AX*8), Y8, Y1 // x0·c0
	VMOVUPD (SI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2         // r = b − x0·c0
	VMULPD  (R8)(AX*8), Y9, Y1 // x1·c1
	VSUBPD  Y1, Y2, Y2         // r −= x1·c1
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      resid2Loop

resid2Done:
	VMOVUPD Y0, s_0+88(FP)
	VZEROUPPER
	RET

// func residLanes3AVX(b []float64, x0, x1, x2 float64, c0, c1, c2 []float64) (s [4]float64)
TEXT ·residLanes3AVX(SB), NOSPLIT, $0-152
	MOVQ         b_base+0(FP), SI
	MOVQ         b_len+8(FP), CX
	VBROADCASTSD x0+24(FP), Y8
	VBROADCASTSD x1+32(FP), Y9
	VBROADCASTSD x2+40(FP), Y10
	MOVQ         c0_base+48(FP), DI
	MOVQ         c1_base+72(FP), R8
	MOVQ         c2_base+96(FP), R9
	VXORPD       Y0, Y0, Y0
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           resid3Done

resid3Loop:
	VMULPD  (DI)(AX*8), Y8, Y1  // x0·c0
	VMOVUPD (SI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2          // r = b − x0·c0
	VMULPD  (R8)(AX*8), Y9, Y1  // x1·c1
	VSUBPD  Y1, Y2, Y2          // r −= x1·c1
	VMULPD  (R9)(AX*8), Y10, Y1 // x2·c2
	VSUBPD  Y1, Y2, Y2          // r −= x2·c2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      resid3Loop

resid3Done:
	VMOVUPD Y0, s_0+120(FP)
	VZEROUPPER
	RET

// func residLanesNAVX(b, x []float64, cols [][]float64) (s [4]float64)
//
// x holds the stretches to subtract, in order, and cols[j] the column of
// x[j]; every column is at least len(b) long.
TEXT ·residLanesNAVX(SB), NOSPLIT, $0-104
	MOVQ   b_base+0(FP), SI
	MOVQ   b_len+8(FP), CX
	MOVQ   x_base+24(FP), R8
	MOVQ   x_len+32(FP), R9
	LEAQ   (R8)(R9*8), R9      // end of x
	MOVQ   cols_base+48(FP), R10
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	TESTQ  CX, CX
	JZ     residNDone

residNBlock:
	VMOVUPD (SI)(AX*8), Y1     // r = b
	MOVQ    R8, BX             // &x[j]
	MOVQ    R10, DX            // &cols[j]
	CMPQ    BX, R9
	JAE     residNSquare

residNCol:
	MOVQ         (DX), DI      // cols[j] base
	VBROADCASTSD (BX), Y2
	VMULPD       (DI)(AX*8), Y2, Y2 // x[j]·cols[j]
	VSUBPD       Y2, Y1, Y1         // r −= x[j]·cols[j]
	ADDQ         $8, BX
	ADDQ         $24, DX
	CMPQ         BX, R9
	JB           residNCol

residNSquare:
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ   $4, AX
	CMPQ   AX, CX
	JB     residNBlock

residNDone:
	VMOVUPD Y0, s_0+72(FP)
	VZEROUPPER
	RET
