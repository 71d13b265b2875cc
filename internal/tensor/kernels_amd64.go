//go:build !race

package tensor

// The SSE2 inner loops of the cell kernels, in kernels_amd64.s. Each
// vector lane holds one output element and takes that element's terms
// in the same order as the portable loops of kernels_generic.go, which
// document the contracts; MULPS and ADDPS round each lane exactly as
// MULSS and ADDSS round the scalar, so the two builds agree bit for
// bit. Only SSE2, the GOAMD64=v1 baseline, is used: there is no
// CPU-feature check to make.

//go:noescape
func addRowsKernel(dst []float32, m []float32, ld int, rows []int32, coef []float32) bool

//go:noescape
func transB4Kernel(dst []float32, ld int, chunk []float32, b []float32, ldb int)

//go:noescape
func columns8Kernel(dst []float32, ld int, a []float32, lda int, colN []int32, colK []int32, colV []float32, stride int) bool

//go:noescape
func columns32Kernel(dst []float32, ld int, a []float32, lda int, colN []int32, colK []int32, colV []float32, stride int) bool

//go:noescape
func transpose4Kernel(dst []float32, ldd int, src []float32, lds int)
