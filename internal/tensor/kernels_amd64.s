//go:build !race

#include "textflag.h"

// SSE2 inner loops of the cell kernels. One vector lane is one output
// element: its terms arrive in the order the portable loops of
// kernels_generic.go give them, and MULPS/ADDPS round each lane as
// MULSS/ADDSS round the scalar. Go's runtime leaves MXCSR at its
// default (round to nearest, no FTZ/DAZ), so subnormals behave as in
// the scalar code too. Every loop is unaligned-safe (MOVUPS) and reads
// and writes only within the slices it is given: the Go callers
// reslice each operand to the length used here, and row indices that
// come from data are checked here before they are used.

// TRANSPOSE4 transposes the 4×4 block held one row per register in
// X0..X3, using X4..X6 as scratch. It is its own inverse.
#define TRANSPOSE4 \
	MOVAPS   X0, X4; \
	UNPCKLPS X1, X4; \
	UNPCKHPS X1, X0; \
	MOVAPS   X2, X5; \
	UNPCKLPS X3, X5; \
	UNPCKHPS X3, X2; \
	MOVAPS   X0, X6; \
	MOVAPS   X4, X0; \
	MOVLHPS  X5, X0; \
	MOVHLPS  X4, X5; \
	MOVAPS   X5, X1; \
	MOVAPS   X6, X4; \
	MOVLHPS  X2, X4; \
	MOVHLPS  X6, X2; \
	MOVAPS   X2, X3; \
	MOVAPS   X4, X2

// BDOT4 adds the four k terms of one b row, loaded into X8, to the
// accumulator acc: lane r gets chunk row r's value at k+q times
// b[k+q], q = 0..3 in order, from the chunk vectors in X12..X15.
#define BDOT4(acc) \
	PSHUFD  $0x00, X8, X9; \
	MULPS   X12, X9; \
	ADDPS   X9, acc; \
	PSHUFD  $0x55, X8, X10; \
	MULPS   X13, X10; \
	ADDPS   X10, acc; \
	PSHUFD  $0xaa, X8, X11; \
	MULPS   X14, X11; \
	ADDPS   X11, acc; \
	PSHUFD  $0xff, X8, X9; \
	MULPS   X15, X9; \
	ADDPS   X9, acc

// GATHER4 loads the four strided dst values at R12, R12+ld, R12+2ld
// and R12+3ld (ld in bytes in R8, 3ld in R9) into reg's lanes 0..3,
// leaving R12 four rows on. s1..s3 are scratch.
#define GATHER4(reg, s1, s2, s3) \
	MOVSS    (R12), reg; \
	MOVSS    (R12)(R8*1), s1; \
	MOVSS    (R12)(R8*2), s2; \
	MOVSS    (R12)(R9*1), s3; \
	LEAQ     (R12)(R8*4), R12; \
	UNPCKLPS s1, reg; \
	UNPCKLPS s3, s2; \
	MOVLHPS  s2, reg

// SCATTER4 stores reg's lanes 0..3 back where GATHER4 loaded them; s
// is scratch.
#define SCATTER4(reg, s) \
	MOVSS    reg, (R12); \
	PSHUFD   $0x55, reg, s; \
	MOVSS    s, (R12)(R8*1); \
	PSHUFD   $0xaa, reg, s; \
	MOVSS    s, (R12)(R8*2); \
	PSHUFD   $0xff, reg, s; \
	MOVSS    s, (R12)(R9*1); \
	LEAQ     (R12)(R8*4), R12

// COLUMN_ENTRY loads entry AX of the column at BX (rows) and DX
// (values): its row offset into R9, failing when the row is negative
// or its load would leave a (R10 holds the largest valid offset), and
// its value, broadcast, into X8.
#define COLUMN_ENTRY(fail) \
	MOVLQSX (BX)(AX*4), R9; \
	IMULQ   R11, R9; \
	CMPQ    R9, R10; \
	JHI     fail; \
	MOVSS   (DX)(AX*4), X8; \
	SHUFPS  $0x00, X8, X8

// ROWOFF loads row index n+i of rows (BX, n in R12) into reg as a
// pointer into m (SI), failing unless the row lies inside m: its
// element offset row*ld must not exceed R10 = len(m) - ld (unsigned,
// so a negative row fails too).
#define ROWOFF(i, reg, fail) \
	MOVLQSX (i*4)(BX)(R12*4), reg; \
	IMULQ   ld+48(FP), reg; \
	CMPQ    reg, R10; \
	JHI     fail; \
	LEAQ    (SI)(reg*4), reg

// func addRowsKernel(dst []float32, m []float32, ld int, rows []int32, coef []float32) bool
//
// dst[j] += Σₙ coef[n]·m[rows[n]·ld+j], n ascending, for every j in the
// whole quads of dst. Rows are taken four at a time: each dst quad is
// loaded once, takes the four products in row order and is stored once
// (two quads per iteration); the last len(rows) mod 4 rows take one
// pass each. It reports false, before touching the rows' group, when a
// row index lies outside m.
TEXT ·addRowsKernel(SB), NOSPLIT, $0-105
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	SHLQ    $2, CX
	ANDQ    $-16, CX           // bytes in whole quads of dst
	JZ      rows_ok
	MOVQ    CX, R11
	ANDQ    $-32, R11          // bytes in whole pairs of quads
	MOVQ    m_base+24(FP), SI
	MOVQ    m_len+32(FP), R10
	SUBQ    ld+48(FP), R10     // largest valid row offset
	JLT     rows_fail
	MOVQ    rows_base+56(FP), BX
	MOVQ    rows_len+64(FP), R8
	MOVQ    coef_base+80(FP), DX
	MOVQ    coef_len+88(FP), AX
	CMPQ    AX, R8
	CMOVQLT AX, R8             // rows: min(len(rows), len(coef))
	XORQ    R12, R12

rows_group:
	MOVQ    R8, AX
	SUBQ    R12, AX
	CMPQ    AX, $4
	JLT     rows_single
	ROWOFF(0, R9, rows_fail)
	ROWOFF(1, R13, rows_fail)
	ROWOFF(2, R14, rows_fail)
	ROWOFF(3, R15, rows_fail)
	MOVSS   (DX)(R12*4), X0
	SHUFPS  $0x00, X0, X0
	MOVSS   4(DX)(R12*4), X1
	SHUFPS  $0x00, X1, X1
	MOVSS   8(DX)(R12*4), X2
	SHUFPS  $0x00, X2, X2
	MOVSS   12(DX)(R12*4), X3
	SHUFPS  $0x00, X3, X3
	XORQ    AX, AX
	TESTQ   R11, R11
	JZ      rows_group_quad

rows_group_pair:
	MOVUPS  (DI)(AX*1), X4
	MOVUPS  16(DI)(AX*1), X5
	MOVUPS  (R9)(AX*1), X6
	MOVUPS  16(R9)(AX*1), X7
	MULPS   X0, X6
	MULPS   X0, X7
	ADDPS   X6, X4
	ADDPS   X7, X5
	MOVUPS  (R13)(AX*1), X8
	MOVUPS  16(R13)(AX*1), X9
	MULPS   X1, X8
	MULPS   X1, X9
	ADDPS   X8, X4
	ADDPS   X9, X5
	MOVUPS  (R14)(AX*1), X10
	MOVUPS  16(R14)(AX*1), X11
	MULPS   X2, X10
	MULPS   X2, X11
	ADDPS   X10, X4
	ADDPS   X11, X5
	MOVUPS  (R15)(AX*1), X12
	MOVUPS  16(R15)(AX*1), X13
	MULPS   X3, X12
	MULPS   X3, X13
	ADDPS   X12, X4
	ADDPS   X13, X5
	MOVUPS  X4, (DI)(AX*1)
	MOVUPS  X5, 16(DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R11
	JCS     rows_group_pair
	CMPQ    AX, CX
	JCC     rows_group_next

rows_group_quad:
	MOVUPS  (DI)(AX*1), X4
	MOVUPS  (R9)(AX*1), X6
	MULPS   X0, X6
	ADDPS   X6, X4
	MOVUPS  (R13)(AX*1), X8
	MULPS   X1, X8
	ADDPS   X8, X4
	MOVUPS  (R14)(AX*1), X10
	MULPS   X2, X10
	ADDPS   X10, X4
	MOVUPS  (R15)(AX*1), X12
	MULPS   X3, X12
	ADDPS   X12, X4
	MOVUPS  X4, (DI)(AX*1)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JCS     rows_group_quad

rows_group_next:
	ADDQ    $4, R12
	JMP     rows_group

rows_single:
	CMPQ    R12, R8
	JGE     rows_ok
	ROWOFF(0, R9, rows_fail)
	MOVSS   (DX)(R12*4), X0
	SHUFPS  $0x00, X0, X0
	XORQ    AX, AX

rows_single_quad:
	MOVUPS  (R9)(AX*1), X6
	MULPS   X0, X6
	MOVUPS  (DI)(AX*1), X4
	ADDPS   X6, X4
	MOVUPS  X4, (DI)(AX*1)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JCS     rows_single_quad
	INCQ    R12
	JMP     rows_single

rows_ok:
	MOVB    $1, ret+104(FP)
	RET

rows_fail:
	MOVB    $0, ret+104(FP)
	RET

// func transB4Kernel(dst []float32, ld int, chunk []float32, b []float32, ldb int)
//
// Four columns of dst per pass: their 4×4 block is loaded and
// transposed so that each register holds one column, lane r being row
// r's accumulator; the chunk is walked one k quad at a time, and the
// block is transposed back and stored.
TEXT ·transB4Kernel(SB), NOSPLIT, $0-88
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    ld+24(FP), R8
	MOVQ    chunk_base+32(FP), SI
	MOVQ    chunk_len+40(FP), DX
	MOVQ    b_base+56(FP), BX
	MOVQ    ldb+80(FP), R9
	LEAQ    (R8)(R8*2), AX
	SUBQ    AX, CX             // n = len(dst) - 3*ld
	JLE     transb_done
	SHRQ    $2, CX             // column blocks
	JZ      transb_done
	SHRQ    $4, DX             // k quads: len(chunk) / 16
	SHLQ    $2, R8             // ld in bytes
	SHLQ    $2, R9             // ldb in bytes
	LEAQ    (R8)(R8*2), R14    // 3*ld in bytes
	LEAQ    (R9)(R9*2), R13    // 3*ldb in bytes

transb_block:
	MOVUPS  (DI), X0
	MOVUPS  (DI)(R8*1), X1
	MOVUPS  (DI)(R8*2), X2
	MOVUPS  (DI)(R14*1), X3
	TRANSPOSE4
	MOVQ    SI, R10
	MOVQ    BX, R11
	MOVQ    DX, R12
	TESTQ   R12, R12
	JZ      transb_store

transb_k:
	MOVUPS  (R10), X12
	MOVUPS  16(R10), X13
	MOVUPS  32(R10), X14
	MOVUPS  48(R10), X15
	MOVUPS  (R11), X8
	BDOT4(X0)
	MOVUPS  (R11)(R9*1), X8
	BDOT4(X1)
	MOVUPS  (R11)(R9*2), X8
	BDOT4(X2)
	MOVUPS  (R11)(R13*1), X8
	BDOT4(X3)
	ADDQ    $64, R10
	ADDQ    $16, R11
	DECQ    R12
	JNZ     transb_k

transb_store:
	TRANSPOSE4
	MOVUPS  X0, (DI)
	MOVUPS  X1, (DI)(R8*1)
	MOVUPS  X2, (DI)(R8*2)
	MOVUPS  X3, (DI)(R14*1)
	ADDQ    $16, DI
	LEAQ    (BX)(R9*4), BX     // next four b rows
	DECQ    CX
	JNZ     transb_block

transb_done:
	RET

// func transpose4Kernel(dst []float32, ldd int, src []float32, lds int)
//
// Transposes a strip of four src rows: for every whole quad of the
// n = len(src) - 3*lds columns, the 4×4 block is loaded one src row
// per register, transposed, and stored as four values into each of
// four consecutive dst rows (dst row j starts at j*ldd).
TEXT ·transpose4Kernel(SB), NOSPLIT, $0-64
	MOVQ    dst_base+0(FP), DI
	MOVQ    ldd+24(FP), R8
	MOVQ    src_base+32(FP), SI
	MOVQ    src_len+40(FP), CX
	MOVQ    lds+56(FP), R9
	LEAQ    (R9)(R9*2), AX
	SUBQ    AX, CX             // n = len(src) - 3*lds
	JLE     tr_done
	SHRQ    $2, CX             // column quads
	JZ      tr_done
	SHLQ    $2, R8             // ldd in bytes
	SHLQ    $2, R9             // lds in bytes
	LEAQ    (R8)(R8*2), R10    // 3*ldd in bytes
	LEAQ    (R9)(R9*2), R11    // 3*lds in bytes

tr_quad:
	MOVUPS  (SI), X0
	MOVUPS  (SI)(R9*1), X1
	MOVUPS  (SI)(R9*2), X2
	MOVUPS  (SI)(R11*1), X3
	TRANSPOSE4
	MOVUPS  X0, (DI)
	MOVUPS  X1, (DI)(R8*1)
	MOVUPS  X2, (DI)(R8*2)
	MOVUPS  X3, (DI)(R10*1)
	ADDQ    $16, SI
	LEAQ    (DI)(R8*4), DI
	DECQ    CX
	JNZ     tr_quad

tr_done:
	RET

// func columns8Kernel(dst []float32, ld int, a []float32, lda int, colN []int32, colK []int32, colV []float32, stride int) bool
//
// For each column kk with entries, its eight strided dst values are
// gathered into X0 (rows 0..3) and X1 (rows 4..7) once, every entry
// adds its two 4-wide products, and the values are scattered back.
TEXT ·columns8Kernel(SB), NOSPLIT, $0-145
	MOVQ    dst_base+0(FP), DI
	MOVQ    ld+24(FP), R8
	SHLQ    $2, R8             // ld in bytes
	MOVQ    a_base+32(FP), SI
	MOVQ    a_len+40(FP), R10
	SUBQ    $8, R10           // largest offset a 8-value load may start at
	JLT     col8_fail
	MOVQ    lda+56(FP), R11
	MOVQ    colN_base+64(FP), R13
	MOVQ    colN_len+72(FP), R14
	MOVQ    colK_base+88(FP), BX
	MOVQ    colV_base+112(FP), DX
	MOVQ    stride+136(FP), R15
	TESTQ   R14, R14
	JZ      col8_ok

col8_column:
	MOVLQSX (R13), CX
	TESTQ   CX, CX
	JZ      col8_next
	CMPQ    CX, R15
	JHI     col8_fail          // unsigned: catches negative counts too
	MOVQ    DI, R12
	LEAQ    (R8)(R8*2), R9     // 3*ld in bytes
	GATHER4(X0, X9, X10, X11)
	GATHER4(X1, X9, X10, X11)
	XORQ    AX, AX

col8_entry:
	COLUMN_ENTRY(col8_fail)
	MOVUPS  (SI)(R9*4), X9
	MULPS   X8, X9
	ADDPS   X9, X0
	MOVUPS  16(SI)(R9*4), X10
	MULPS   X8, X10
	ADDPS   X10, X1
	INCQ    AX
	CMPQ    AX, CX
	JCS     col8_entry
	MOVQ    DI, R12
	LEAQ    (R8)(R8*2), R9
	SCATTER4(X0, X9)
	SCATTER4(X1, X9)

col8_next:
	ADDQ    $4, DI
	ADDQ    $4, R13
	LEAQ    (BX)(R15*4), BX
	LEAQ    (DX)(R15*4), DX
	DECQ    R14
	JNZ     col8_column

col8_ok:
	MOVB    $1, ret+144(FP)
	RET

col8_fail:
	MOVB    $0, ret+144(FP)
	RET

// func columns32Kernel(dst []float32, ld int, a []float32, lda int, colN []int32, colK []int32, colV []float32, stride int) bool
//
// columns8Kernel over 32 rows: eight accumulator vectors per entry
// instead of two spread each entry's fixed cost (index check,
// broadcast, loop) over four times the work.
TEXT ·columns32Kernel(SB), NOSPLIT, $0-145
	MOVQ    dst_base+0(FP), DI
	MOVQ    ld+24(FP), R8
	SHLQ    $2, R8             // ld in bytes
	MOVQ    a_base+32(FP), SI
	MOVQ    a_len+40(FP), R10
	SUBQ    $32, R10           // largest offset a 32-value load may start at
	JLT     col32_fail
	MOVQ    lda+56(FP), R11
	MOVQ    colN_base+64(FP), R13
	MOVQ    colN_len+72(FP), R14
	MOVQ    colK_base+88(FP), BX
	MOVQ    colV_base+112(FP), DX
	MOVQ    stride+136(FP), R15
	TESTQ   R14, R14
	JZ      col32_ok

col32_column:
	MOVLQSX (R13), CX
	TESTQ   CX, CX
	JZ      col32_next
	CMPQ    CX, R15
	JHI     col32_fail          // unsigned: catches negative counts too
	MOVQ    DI, R12
	LEAQ    (R8)(R8*2), R9     // 3*ld in bytes
	GATHER4(X0, X9, X10, X11)
	GATHER4(X1, X9, X10, X11)
	GATHER4(X2, X9, X10, X11)
	GATHER4(X3, X9, X10, X11)
	GATHER4(X4, X9, X10, X11)
	GATHER4(X5, X9, X10, X11)
	GATHER4(X6, X9, X10, X11)
	GATHER4(X7, X9, X10, X11)
	XORQ    AX, AX

col32_entry:
	COLUMN_ENTRY(col32_fail)
	MOVUPS  (SI)(R9*4), X9
	MULPS   X8, X9
	ADDPS   X9, X0
	MOVUPS  16(SI)(R9*4), X10
	MULPS   X8, X10
	ADDPS   X10, X1
	MOVUPS  32(SI)(R9*4), X11
	MULPS   X8, X11
	ADDPS   X11, X2
	MOVUPS  48(SI)(R9*4), X12
	MULPS   X8, X12
	ADDPS   X12, X3
	MOVUPS  64(SI)(R9*4), X13
	MULPS   X8, X13
	ADDPS   X13, X4
	MOVUPS  80(SI)(R9*4), X14
	MULPS   X8, X14
	ADDPS   X14, X5
	MOVUPS  96(SI)(R9*4), X15
	MULPS   X8, X15
	ADDPS   X15, X6
	MOVUPS  112(SI)(R9*4), X9
	MULPS   X8, X9
	ADDPS   X9, X7
	INCQ    AX
	CMPQ    AX, CX
	JCS     col32_entry
	MOVQ    DI, R12
	LEAQ    (R8)(R8*2), R9
	SCATTER4(X0, X9)
	SCATTER4(X1, X9)
	SCATTER4(X2, X9)
	SCATTER4(X3, X9)
	SCATTER4(X4, X9)
	SCATTER4(X5, X9)
	SCATTER4(X6, X9)
	SCATTER4(X7, X9)

col32_next:
	ADDQ    $4, DI
	ADDQ    $4, R13
	LEAQ    (BX)(R15*4), BX
	LEAQ    (DX)(R15*4), DX
	DECQ    R14
	JNZ     col32_column

col32_ok:
	MOVB    $1, ret+144(FP)
	RET

col32_fail:
	MOVB    $0, ret+144(FP)
	RET
