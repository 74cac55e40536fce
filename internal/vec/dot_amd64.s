// Dot-product kernels behind the norm-precompute distance scan and the
// ANN paths (LSH projections, k-d and LSH candidate distances).
//
// float64: each query accumulates into a single 2-lane xmm register —
// per 4-element chunk the products of elements {i, i+1} and {i+2, i+3}
// are added into the same register (lane 0 collects even offsets, lane 1
// odd offsets), the scalar tail accumulates into lane 0, and the final
// value is lane0 + lane1.
//
// float32: each query accumulates into one 8-lane ymm register — lanes
// are offsets mod 8, so an 8-element chunk is one VMULPS and one VADDPS.
// Lanes 4-7 are extracted to an xmm register before the scalar tail (VEX
// 128-bit writes zero the upper half), the tail accumulates into lane 0,
// and the final value is ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
//
// dot4x32avx and gemv4x32avx run four queries against one row with
// private accumulators per query, and gemv8x64avx eight, so each query's
// sum uses exactly the tree of the single-query kernels — distances
// therefore do not depend on how queries are grouped into batches.
// dotTreeGo64 and dotTreeGo32 (dot_kernels.go) are the same trees in pure
// Go; the kernels here must stay bit-identical to them
// (TestDotKernelsMatchGoTree, TestDot32AVXMatchesGoTree,
// TestGemv4x32MatchesGo, TestSweep8x64MatchesGoTree).
//
// Every kernel but dot1x64 (SSE2; AVX hosts run it for norms and a last
// single query) needs AVX. dot_amd64.go picks at startup via
// cpuHasAVX, and without AVX the scan runs the Go trees of dot_kernels.go,
// as it does on every other architecture. The float64 sweep gemv8x64avx
// cannot widen one query's tree, which the float64 golden files freeze at
// two lanes, so it packs the two lanes of two queries into each ymm
// register and serves eight queries per pass over the training rows.
//
// The four-lane family at the end of this file serves the ANN paths with
// the tree of vec.Dot and vec.SqL2, not the scan's: one ymm accumulator
// holds the four lanes (offsets mod 4) of one row's sum, the tail goes
// into lane 0, and the fold is ((s0+s1)+s2)+s3. Four rows per pass give
// four independent accumulators (eight with two vectors).
// dotRows4x64avx is the AVX body of vec.DotRows (the LSH query's
// projections), dotRows4x2x64avx of vec.DotRows2 (the LSH build's) and
// sqL2x4avx of vec.SqL2x4 (k-d leaf scans and LSH candidates), and
// TestFourLaneMatchesDot pins them against Dot and SqL2.
// No FMA anywhere: fused multiply-adds round differently.

#include "textflag.h"

// func dot1x64(a, b []float64) float64
TEXT ·dot1x64(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	XORPS X0, X0
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    tail
loop4:
	MOVUPD 0(SI), X4
	MOVUPD 16(SI), X5
	MOVUPD 0(DI), X6
	MOVUPD 16(DI), X7
	MULPD  X4, X6
	MULPD  X5, X7
	ADDPD  X6, X0
	ADDPD  X7, X0
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   BX
	JNZ    loop4
tail:
	ANDQ $3, CX
	JZ   done
tailloop:
	MOVSD 0(SI), X4
	MULSD 0(DI), X4
	ADDSD X4, X0
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   tailloop
done:
	MOVAPD   X0, X1
	UNPCKHPD X1, X1
	ADDSD    X1, X0
	MOVSD    X0, ret+48(FP)
	RET

// func dot1x32avx(a, b []float32) float32
//
// The 8-lane tree in one ymm accumulator: a chunk's eight products land
// on lanes 0-7 with a single VADDPS, so the per-chunk critical path is
// one add. Lanes 4-7 are extracted to X1 before the scalar tail, the tail
// accumulates into lane 0, and the fold is
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), the bits of dotTreeGo32.
TEXT ·dot1x32avx(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	MOVQ   CX, BX
	SHRQ   $3, BX
	JZ     fold
loop8:
	VMOVUPS 0(SI), Y4
	VMULPS  0(DI), Y4, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     loop8
fold:
	VEXTRACTF128 $1, Y0, X1
	VZEROUPPER
	ANDQ $7, CX
	JZ   combine
tailloop:
	MOVSS 0(SI), X4
	MULSS 0(DI), X4
	ADDSS X4, X0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   tailloop
combine:
	ADDPS   X1, X0
	MOVAPS  X0, X1
	MOVHLPS X1, X1
	ADDPS   X1, X0
	MOVAPS  X0, X1
	SHUFPS  $0x55, X1, X1
	ADDSS   X1, X0
	MOVSS   X0, ret+48(FP)
	RET

// func dot4x32avx(row, q0, q1, q2, q3 []float32, out *[4]float32)
//
// One ymm accumulator per query (Y0-Y3), row chunk in Y8, per-query
// product temporaries Y9-Y12. Upper halves are extracted to X4-X7
// before the scalar tail; each query's fold is dot1x32avx's.
TEXT ·dot4x32avx(SB), NOSPLIT, $0-128
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	MOVQ q0_base+24(FP), DI
	MOVQ q1_base+48(FP), R8
	MOVQ q2_base+72(FP), R9
	MOVQ q3_base+96(FP), R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   CX, BX
	SHRQ   $3, BX
	JZ     fold
loop8:
	VMOVUPS 0(SI), Y8
	VMOVUPS 0(DI), Y9
	VMOVUPS 0(R8), Y10
	VMOVUPS 0(R9), Y11
	VMOVUPS 0(R10), Y12
	VMULPS  Y8, Y9, Y9
	VMULPS  Y8, Y10, Y10
	VMULPS  Y8, Y11, Y11
	VMULPS  Y8, Y12, Y12
	VADDPS  Y9, Y0, Y0
	VADDPS  Y10, Y1, Y1
	VADDPS  Y11, Y2, Y2
	VADDPS  Y12, Y3, Y3
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	DECQ    BX
	JNZ     loop8
fold:
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	VZEROUPPER
	ANDQ $7, CX
	JZ   combine
tailloop:
	MOVSS 0(SI), X8
	MOVSS 0(DI), X10
	MULSS X8, X10
	ADDSS X10, X0
	MOVSS 0(R8), X10
	MULSS X8, X10
	ADDSS X10, X1
	MOVSS 0(R9), X10
	MULSS X8, X10
	ADDSS X10, X2
	MOVSS 0(R10), X10
	MULSS X8, X10
	ADDSS X10, X3
	ADDQ  $4, SI
	ADDQ  $4, DI
	ADDQ  $4, R8
	ADDQ  $4, R9
	ADDQ  $4, R10
	DECQ  CX
	JNZ   tailloop
combine:
	MOVQ    out+120(FP), AX
	ADDPS   X4, X0
	MOVAPS  X0, X8
	MOVHLPS X8, X8
	ADDPS   X8, X0
	MOVAPS  X0, X8
	SHUFPS  $0x55, X8, X8
	ADDSS   X8, X0
	MOVSS   X0, 0(AX)
	ADDPS   X5, X1
	MOVAPS  X1, X8
	MOVHLPS X8, X8
	ADDPS   X8, X1
	MOVAPS  X1, X8
	SHUFPS  $0x55, X8, X8
	ADDSS   X8, X1
	MOVSS   X1, 4(AX)
	ADDPS   X6, X2
	MOVAPS  X2, X8
	MOVHLPS X8, X8
	ADDPS   X8, X2
	MOVAPS  X2, X8
	SHUFPS  $0x55, X8, X8
	ADDSS   X8, X2
	MOVSS   X2, 8(AX)
	ADDPS   X7, X3
	MOVAPS  X3, X8
	MOVHLPS X8, X8
	ADDPS   X8, X3
	MOVAPS  X3, X8
	SHUFPS  $0x55, X8, X8
	ADDSS   X8, X3
	MOVSS   X3, 12(AX)
	RET

// func cpuHasAVX() bool
//
// True when the CPU reports AVX and the OS has enabled xmm+ymm state
// saving (OSXSAVE set and XCR0 bits 1-2 set) — the complete condition
// for VEX 256-bit instructions to be usable.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27 | 1<<28), DX
	CMPL DX, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func gemv4x32avx(dst4 []float64, stride, n int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32)
//
// n rows of a four-query distance group in a single call: for every row r,
// accumulate the four dots with the 8-lane tree (one ymm accumulator per
// query, Y0-Y3, products in Y4-Y7, row chunk in Y8), extract lanes 4-7 to
// X8-X11 before the scalar tail, fold the four queries TRANSPOSED into
// one packed register (each lane ends up exactly (x0+x2)+(x1+x3) of that
// query's 4-lane partials — the same association as the scalar fold),
// then finish v = nr + qn - 2·dot, the <0 clamp, and the float64 widening
// as packed lane-wise ops (IEEE identical to the scalar expressions of
// sqL2Gemv4x32Go). Row data is indexed by BX so the query base pointers
// never move; distance rows d0..d3 start stride values apart in dst4
// (R11 walks d0/d1, R13 = R11 + 2·stride·8 walks d2/d3, R12 =
// stride·8), so that sqL2Gemv4x32 can fill a long tile one block of
// rows per call. X12 holds the packed query norms, X13 a packed zero for
// the clamp; BP (saved) walks the row norms.
TEXT ·gemv4x32avx(SB), NOSPLIT, $16-200
	MOVQ BP, 8(SP)
	MOVQ dst4_base+0(FP), R11
	MOVQ n+32(FP), AX
	TESTQ AX, AX
	JZ   done
	MOVQ stride+24(FP), R12
	SHLQ $3, R12
	LEAQ (R11)(R12*2), R13
	MOVQ flat_base+40(FP), SI
	MOVQ dim+64(FP), CX
	MOVQ norms_base+72(FP), BP
	MOVQ q0_base+96(FP), DI
	MOVQ q1_base+120(FP), R8
	MOVQ q2_base+144(FP), R9
	MOVQ q3_base+168(FP), R10
	MOVQ qn+192(FP), DX
	MOVUPS (DX), X12
	XORPS X13, X13
	MOVQ CX, BX
	SHLQ $2, BX
	MOVQ BX, 0(SP)
	MOVQ CX, DX
	ANDQ $-8, DX
	SHLQ $2, DX
rowloop:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ  BX, BX
	TESTQ DX, DX
	JZ    extract
chunk:
	VMOVUPS (SI)(BX*1), Y8
	VMOVUPS (DI)(BX*1), Y4
	VMULPS  Y8, Y4, Y4
	VADDPS  Y4, Y0, Y0
	VMOVUPS (R8)(BX*1), Y5
	VMULPS  Y8, Y5, Y5
	VADDPS  Y5, Y1, Y1
	VMOVUPS (R9)(BX*1), Y6
	VMULPS  Y8, Y6, Y6
	VADDPS  Y6, Y2, Y2
	VMOVUPS (R10)(BX*1), Y7
	VMULPS  Y8, Y7, Y7
	VADDPS  Y7, Y3, Y3
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     chunk
extract:
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y1, X9
	VEXTRACTF128 $1, Y2, X10
	VEXTRACTF128 $1, Y3, X11
	VZEROUPPER
	MOVQ 0(SP), CX
	CMPQ BX, CX
	JGE  fold
tailloop:
	MOVSS (SI)(BX*1), X4
	MOVSS (DI)(BX*1), X5
	MULSS X4, X5
	ADDSS X5, X0
	MOVSS (R8)(BX*1), X5
	MULSS X4, X5
	ADDSS X5, X1
	MOVSS (R9)(BX*1), X5
	MULSS X4, X5
	ADDSS X5, X2
	MOVSS (R10)(BX*1), X5
	MULSS X4, X5
	ADDSS X5, X3
	ADDQ  $4, BX
	CMPQ  BX, CX
	JLT   tailloop
fold:
	ADDPS    X8, X0
	ADDPS    X9, X1
	ADDPS    X10, X2
	ADDPS    X11, X3
	MOVAPS   X0, X8
	UNPCKLPS X1, X0
	UNPCKHPS X1, X8
	MOVAPS   X2, X9
	UNPCKLPS X3, X2
	UNPCKHPS X3, X9
	MOVAPS   X0, X10
	MOVLHPS  X2, X0
	MOVHLPS  X10, X2
	MOVAPS   X8, X10
	MOVLHPS  X9, X8
	MOVHLPS  X10, X9
	ADDPS    X8, X0
	ADDPS    X9, X2
	ADDPS    X2, X0
	MOVSS    (BP), X1
	SHUFPS   $0x00, X1, X1
	ADDPS    X12, X1
	ADDPS    X0, X0
	SUBPS    X0, X1
	MOVAPS   X1, X2
	CMPPS    X13, X2, $1
	ANDNPS   X1, X2
	CVTPS2PD X2, X0
	MOVAPS   X2, X1
	MOVHLPS  X1, X1
	CVTPS2PD X1, X1
	MOVSD    X0, (R11)
	UNPCKHPD X0, X0
	MOVSD    X0, (R11)(R12*1)
	MOVSD    X1, (R13)
	UNPCKHPD X1, X1
	MOVSD    X1, (R13)(R12*1)
	ADDQ $8, R11
	ADDQ $8, R13
	ADDQ $4, BP
	ADDQ CX, SI
	DECQ AX
	JNZ  rowloop
done:
	MOVQ 8(SP), BP
	RET

// func gemv8x64avx(dst []float64, n int, flat []float64, dim int, norms []float64, qp []float64, qn *[8]float64, offs *[8]int)
//
// An eight-query float64 distance pass over n rows; sqL2Sweep8 calls it
// once per block of rows, so that the pass can be preempted between
// blocks. Each ymm accumulator holds the two lanes of dot1x64's tree for
// two queries: Y0 = q0|q2, Y1 = q1|q3, Y2 = q4|q6, Y3 = q5|q7 (lanes 0-1
// the first query's, 2-3 the second's). qp is the query block packQueries8 lays out: per two
// elements of the four-element body, the four pairs' [a_i, a_i+1, b_i,
// b_i+1] (128 bytes, read at (DI)(BX*8) while the row is read at
// (SI)(BX*1)); then per tail element the four pairs' [a_j, 0, b_j, 0]
// (walked by R13 from R12). Each body step broadcasts the row's element
// pair to both halves of Y4 and adds the products into lanes 0-1 in the
// order dotTreeGo64 adds them; a tail element goes in as [r_j, 0, r_j, 0],
// so lane 0 gets the scalar tail and lane 1 adds +0, which changes no
// bit (an accumulator that starts at +0 can never hold −0). The fold
// interleaves the pairs back into query order and adds lane 0 + lane 1,
// then v = (‖a‖²+‖q‖²) − 2·dot and the NaN-preserving clamp run four
// queries at a time (Y9/Y10 the query norms, Y11 zero), all IEEE
// identical to the scalar expressions of SqL2NormDotBatch. Query j's
// distance goes to dst[offs[j]+r]; R11 walks the row index r, R9 the row
// norms, SI the rows (CX bytes each), DX is the body's byte length.
TEXT ·gemv8x64avx(SB), NOSPLIT, $0-128
	MOVQ n+24(FP), AX
	TESTQ AX, AX
	JZ   done
	MOVQ dst_base+0(FP), R11
	MOVQ flat_base+32(FP), SI
	MOVQ dim+56(FP), CX
	MOVQ norms_base+64(FP), R9
	MOVQ qp_base+88(FP), DI
	MOVQ qn+112(FP), R10
	VMOVUPD (R10), Y9
	VMOVUPD 32(R10), Y10
	MOVQ offs+120(FP), R8
	VXORPD Y11, Y11, Y11
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-32, DX
	LEAQ (DI)(DX*8), R12
rowloop:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ  BX, BX
	TESTQ DX, DX
	JZ    tail
chunk:
	VBROADCASTF128 (SI)(BX*1), Y4
	VMULPD  (DI)(BX*8), Y4, Y5
	VMULPD  32(DI)(BX*8), Y4, Y6
	VMULPD  64(DI)(BX*8), Y4, Y7
	VMULPD  96(DI)(BX*8), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	VBROADCASTF128 16(SI)(BX*1), Y4
	VMULPD  128(DI)(BX*8), Y4, Y5
	VMULPD  160(DI)(BX*8), Y4, Y6
	VMULPD  192(DI)(BX*8), Y4, Y7
	VMULPD  224(DI)(BX*8), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     chunk
tail:
	CMPQ BX, CX
	JGE  fold
	MOVQ R12, R13
tailloop:
	VMOVSD      (SI)(BX*1), X4
	VINSERTF128 $1, X4, Y4, Y4
	VMULPD      (R13), Y4, Y5
	VMULPD      32(R13), Y4, Y6
	VMULPD      64(R13), Y4, Y7
	VMULPD      96(R13), Y4, Y8
	VADDPD      Y5, Y0, Y0
	VADDPD      Y6, Y1, Y1
	VADDPD      Y7, Y2, Y2
	VADDPD      Y8, Y3, Y3
	ADDQ $128, R13
	ADDQ $8, BX
	CMPQ BX, CX
	JLT  tailloop
fold:
	VUNPCKLPD Y1, Y0, Y5
	VUNPCKHPD Y1, Y0, Y6
	VADDPD    Y6, Y5, Y0
	VUNPCKLPD Y3, Y2, Y7
	VUNPCKHPD Y3, Y2, Y8
	VADDPD    Y8, Y7, Y2
	VBROADCASTSD (R9), Y4
	VADDPD  Y9, Y4, Y5
	VADDPD  Y10, Y4, Y6
	VADDPD  Y0, Y0, Y0
	VADDPD  Y2, Y2, Y2
	VSUBPD  Y0, Y5, Y5
	VSUBPD  Y2, Y6, Y6
	VCMPPD  $1, Y11, Y5, Y7
	VCMPPD  $1, Y11, Y6, Y8
	VANDNPD Y5, Y7, Y5
	VANDNPD Y6, Y8, Y6
	MOVQ    0(R8), R10
	VMOVSD  X5, (R11)(R10*8)
	MOVQ    8(R8), R10
	VMOVHPD X5, (R11)(R10*8)
	VEXTRACTF128 $1, Y5, X5
	MOVQ    16(R8), R10
	VMOVSD  X5, (R11)(R10*8)
	MOVQ    24(R8), R10
	VMOVHPD X5, (R11)(R10*8)
	MOVQ    32(R8), R10
	VMOVSD  X6, (R11)(R10*8)
	MOVQ    40(R8), R10
	VMOVHPD X6, (R11)(R10*8)
	VEXTRACTF128 $1, Y6, X6
	MOVQ    48(R8), R10
	VMOVSD  X6, (R11)(R10*8)
	MOVQ    56(R8), R10
	VMOVHPD X6, (R11)(R10*8)
	ADDQ $8, R11
	ADDQ $8, R9
	ADDQ CX, SI
	DECQ AX
	JNZ  rowloop
	VZEROUPPER
done:
	RET

// The four-lane family: the AVX bodies of DotRows, DotRows2 and SqL2x4.
// One ymm accumulator holds the lanes [s0, s1, s2, s3] of one sum, so a
// four-element chunk is one VMULPD and one VADDPD (SqL2x4: VSUBPD, then
// the square). A tail element is loaded with VMOVSD, which zeroes the
// other three lanes, so it adds its product to s0 and +0 to s1-s3; that
// changes no bit, since an accumulator that starts at +0 never holds −0.
// FOLD4 then gives ((s0+s1)+s2)+s3 for four accumulators at once. These
// are the sums of Dot and SqL2 in vec.go, element for element.

// FOLD4 transposes the accumulators a, b, c, d through t0-t3 into the
// vectors of their s0, s1, s2 and s3 lanes, and adds those as
// ((s0+s1)+s2)+s3, which leaves a's sum in lane 0 of a, b's in lane 1,
// c's in lane 2 and d's in lane 3. It clobbers b, c, d and t0-t3.
#define FOLD4(a, b, c, d, t0, t1, t2, t3) \
	VUNPCKLPD  b, a, t0; \
	VUNPCKHPD  b, a, t1; \
	VUNPCKLPD  d, c, t2; \
	VUNPCKHPD  d, c, t3; \
	VPERM2F128 $0x20, t2, t0, a; \
	VPERM2F128 $0x20, t3, t1, b; \
	VPERM2F128 $0x31, t2, t0, c; \
	VPERM2F128 $0x31, t3, t1, d; \
	VADDPD     b, a, a; \
	VADDPD     c, a, a; \
	VADDPD     d, a, a

// func dotRows4x64avx(dst, mat, x []float64)
//
// dst[j] = (row j of mat)·x for len(dst)/4 groups of four rows, with
// len(x) values per row. SI walks the group's first row and R9-R11 point
// at the other three (CX bytes apart, CX = len(x)·8), DI is x, BX the
// byte offset into the rows, R12 the body's byte length (len(x)&^3 values),
// DX the output; the row accumulators are Y0-Y3.
TEXT ·dotRows4x64avx(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DX
	MOVQ dst_len+8(FP), AX
	SHRQ $2, AX
	JZ   done
	MOVQ mat_base+24(FP), SI
	MOVQ x_base+48(FP), DI
	MOVQ x_len+56(FP), CX
	SHLQ $3, CX
	MOVQ CX, R12
	ANDQ $-32, R12
group:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(CX*1), R9
	LEAQ   (SI)(CX*2), R10
	LEAQ   (R9)(CX*2), R11
	XORQ   BX, BX
	TESTQ  R12, R12
	JZ     tail
chunk:
	VMOVUPD (DI)(BX*1), Y4
	VMULPD  (SI)(BX*1), Y4, Y5
	VMULPD  (R9)(BX*1), Y4, Y6
	VMULPD  (R10)(BX*1), Y4, Y7
	VMULPD  (R11)(BX*1), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, BX
	CMPQ    BX, R12
	JLT     chunk
tail:
	CMPQ BX, CX
	JGE  fold
tailloop:
	VMOVSD (DI)(BX*1), X4
	VMOVSD (SI)(BX*1), X5
	VMOVSD (R9)(BX*1), X6
	VMOVSD (R10)(BX*1), X7
	VMOVSD (R11)(BX*1), X8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ   $8, BX
	CMPQ   BX, CX
	JLT    tailloop
fold:
	FOLD4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	LEAQ    (R11)(CX*1), SI
	DECQ    AX
	JNZ     group
	VZEROUPPER
done:
	RET

// func dotRows4x2x64avx(dst0, dst1, mat, x0, x1 []float64)
//
// dotRows4x64avx for two vectors: every row chunk is loaded once for
// both, x0's accumulators are Y0-Y3 and x1's Y4-Y7. DI is x0, R8 x1,
// DX dst0, R13 dst1; the rest as in dotRows4x64avx.
TEXT ·dotRows4x2x64avx(SB), NOSPLIT, $0-120
	MOVQ dst0_base+0(FP), DX
	MOVQ dst0_len+8(FP), AX
	SHRQ $2, AX
	JZ   done
	MOVQ dst1_base+24(FP), R13
	MOVQ mat_base+48(FP), SI
	MOVQ x0_base+72(FP), DI
	MOVQ x0_len+80(FP), CX
	MOVQ x1_base+96(FP), R8
	SHLQ $3, CX
	MOVQ CX, R12
	ANDQ $-32, R12
group:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (SI)(CX*1), R9
	LEAQ   (SI)(CX*2), R10
	LEAQ   (R9)(CX*2), R11
	XORQ   BX, BX
	TESTQ  R12, R12
	JZ     tail
chunk:
	VMOVUPD (DI)(BX*1), Y8
	VMOVUPD (R8)(BX*1), Y9
	VMOVUPD (SI)(BX*1), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y11, Y0, Y0
	VADDPD  Y12, Y4, Y4
	VMOVUPD (R9)(BX*1), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y11, Y1, Y1
	VADDPD  Y12, Y5, Y5
	VMOVUPD (R10)(BX*1), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y11, Y2, Y2
	VADDPD  Y12, Y6, Y6
	VMOVUPD (R11)(BX*1), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y11, Y3, Y3
	VADDPD  Y12, Y7, Y7
	ADDQ    $32, BX
	CMPQ    BX, R12
	JLT     chunk
tail:
	CMPQ BX, CX
	JGE  fold
tailloop:
	VMOVSD (DI)(BX*1), X8
	VMOVSD (R8)(BX*1), X9
	VMOVSD (SI)(BX*1), X10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y4, Y4
	VMOVSD (R9)(BX*1), X10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y5, Y5
	VMOVSD (R10)(BX*1), X10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y6, Y6
	VMOVSD (R11)(BX*1), X10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y3, Y3
	VADDPD Y12, Y7, Y7
	ADDQ   $8, BX
	CMPQ   BX, CX
	JLT    tailloop
fold:
	FOLD4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	FOLD4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VMOVUPD Y0, (DX)
	VMOVUPD Y4, (R13)
	ADDQ    $32, DX
	ADDQ    $32, R13
	LEAQ    (R11)(CX*1), SI
	DECQ    AX
	JNZ     group
	VZEROUPPER
done:
	RET

// func sqL2x4avx(a0, a1, a2, a3, q []float64, out *[4]float64)
//
// out[j] = Σ (aj[i] − q[i])² with SqL2's four-lane tree, over len(q)
// values. SI, R8, R9, R10 walk a0-a3, DI is q, BX the byte offset, CX
// len(q)·8 and DX the body's byte length; the accumulators are Y0-Y3.
TEXT ·sqL2x4avx(SB), NOSPLIT, $0-128
	MOVQ a0_base+0(FP), SI
	MOVQ a1_base+24(FP), R8
	MOVQ a2_base+48(FP), R9
	MOVQ a3_base+72(FP), R10
	MOVQ q_base+96(FP), DI
	MOVQ q_len+104(FP), CX
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-32, DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   BX, BX
	TESTQ  DX, DX
	JZ     tail
chunk:
	VMOVUPD (DI)(BX*1), Y4
	VMOVUPD (SI)(BX*1), Y5
	VMOVUPD (R8)(BX*1), Y6
	VMOVUPD (R9)(BX*1), Y7
	VMOVUPD (R10)(BX*1), Y8
	VSUBPD  Y4, Y5, Y5
	VSUBPD  Y4, Y6, Y6
	VSUBPD  Y4, Y7, Y7
	VSUBPD  Y4, Y8, Y8
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     chunk
tail:
	CMPQ BX, CX
	JGE  fold
tailloop:
	VMOVSD (DI)(BX*1), X4
	VMOVSD (SI)(BX*1), X5
	VMOVSD (R8)(BX*1), X6
	VMOVSD (R9)(BX*1), X7
	VMOVSD (R10)(BX*1), X8
	VSUBPD Y4, Y5, Y5
	VSUBPD Y4, Y6, Y6
	VSUBPD Y4, Y7, Y7
	VSUBPD Y4, Y8, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ   $8, BX
	CMPQ   BX, CX
	JLT    tailloop
fold:
	FOLD4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	MOVQ    out+120(FP), AX
	VMOVUPD Y0, (AX)
	VZEROUPPER
	RET
