//go:build !amd64 || race

package tensor

// The portable inner loops of the cell kernels. amd64 builds replace
// them with the SSE2 loops of kernels_amd64.s; race builds keep these,
// because the race detector cannot see memory accesses made from
// assembly. Both versions compute every output element with the same
// operations in the same order, so results are bitwise identical. The
// callers in tensor.go own everything else: zero skips, tails and
// bounds checks.

// addRowsKernel adds Σₙ coef[n]·m[rows[n]·ld+j], n ascending, into
// dst[j] for every j < len(dst), with no zero skip: four rows per pass
// over dst, then one. The caller passes len(coef) == len(rows) and
// len(dst) ≤ ld, a multiple of 4. It reports false when a row lies
// outside m.
func addRowsKernel(dst []float32, m []float32, ld int, rows []int32, coef []float32) bool {
	coef = coef[:len(rows)]
	for _, r := range rows {
		if r < 0 || int(r)*ld+ld > len(m) {
			return false
		}
	}
	n := 0
	for ; n+4 <= len(rows); n += 4 {
		x0 := m[int(rows[n])*ld:][:len(dst)]
		x1 := m[int(rows[n+1])*ld:][:len(dst)]
		x2 := m[int(rows[n+2])*ld:][:len(dst)]
		x3 := m[int(rows[n+3])*ld:][:len(dst)]
		a0, a1, a2, a3 := coef[n], coef[n+1], coef[n+2], coef[n+3]
		for j, d := range dst {
			d += float32(a0 * x0[j])
			d += float32(a1 * x1[j])
			d += float32(a2 * x2[j])
			d += float32(a3 * x3[j])
			dst[j] = d
		}
	}
	for ; n < len(rows); n++ {
		x := m[int(rows[n])*ld:][:len(dst)]
		a := coef[n]
		for j, xv := range x {
			dst[j] += float32(a * xv)
		}
	}
	return true
}

// transB4Kernel adds, for each column j < n = len(dst)−3·ld, the dot
// products of the four rows packed k-major in chunk (chunk[4k+r] is row
// r's value at k) with b[j·ldb : j·ldb+kn], k ascending, into
// dst[r·ld+j]. kn = len(chunk)/4. The caller passes n and kn as
// multiples of 4 and len(b) == (n−1)·ldb + kn.
func transB4Kernel(dst []float32, ld int, chunk []float32, b []float32, ldb int) {
	kn := len(chunk) / 4
	n := len(dst) - 3*ld
	for j := 0; j < n; j++ {
		brow := b[j*ldb:][:kn]
		s0, s1, s2, s3 := dst[j], dst[ld+j], dst[2*ld+j], dst[3*ld+j]
		for k, bv := range brow {
			c := chunk[4*k:][:4]
			s0 += float32(c[0] * bv)
			s1 += float32(c[1] * bv)
			s2 += float32(c[2] * bv)
			s3 += float32(c[3] * bv)
		}
		dst[j], dst[ld+j], dst[2*ld+j], dst[3*ld+j] = s0, s1, s2, s3
	}
}

// transpose4Kernel transposes a strip of four src rows: for each column
// j < n = len(src)−3·lds, dst[j·ldd+r] = src[r·lds+j] for r < 4. The
// caller passes n as a multiple of 4 and len(dst) == (n−1)·ldd+4.
func transpose4Kernel(dst []float32, ldd int, src []float32, lds int) {
	n := len(src) - 3*lds
	r0 := src[:n]
	r1 := src[lds:][:n]
	r2 := src[2*lds:][:n]
	r3 := src[3*lds:][:n]
	for j, v := range r0 {
		d := dst[j*ldd:][:4:4]
		d[0], d[1], d[2], d[3] = v, r1[j], r2[j], r3[j]
	}
}

// columns8Kernel adds, for every column kk < len(colN), Σₙ
// a[colK[o+n]·lda+q]·colV[o+n] over n < colN[kk], n ascending, into
// dst[q·ld+kk] for q < 8, where o = kk·stride; no coefficient is
// skipped. The caller passes len(dst) == 7·ld+len(colN) and colK, colV
// of len(colN)·stride. It reports false at the first count above
// stride or row index outside a, leaving that column and the ones
// after it unchanged.
func columns8Kernel(dst []float32, ld int, a []float32, lda int, colN []int32, colK []int32, colV []float32, stride int) bool {
	return columnsLanes(dst, ld, a, lda, colN, colK, colV, stride, 8)
}

// columns32Kernel is columns8Kernel over 32 rows: q < 32 and
// len(dst) == 31·ld+len(colN).
func columns32Kernel(dst []float32, ld int, a []float32, lda int, colN []int32, colK []int32, colV []float32, stride int) bool {
	return columnsLanes(dst, ld, a, lda, colN, colK, colV, stride, 32)
}

// columnsLanes is the column kernel over w ≤ 32 rows.
func columnsLanes(dst []float32, ld int, a []float32, lda int, colN []int32, colK []int32, colV []float32, stride, w int) bool {
	var lanes [32]float32
	s := lanes[:w]
	for kk, cnt := range colN {
		if cnt == 0 {
			continue
		}
		if cnt < 0 || int(cnt) > stride {
			return false
		}
		ks := colK[kk*stride:][:cnt]
		vs := colV[kk*stride:][:cnt]
		for _, k := range ks {
			if k < 0 || int(k)*lda+w > len(a) {
				return false
			}
		}
		for q := range s {
			s[q] = dst[q*ld+kk]
		}
		for n, k := range ks {
			v := vs[n]
			for q, av := range a[int(k)*lda:][:w] {
				s[q] += float32(av * v)
			}
		}
		for q, v := range s {
			dst[q*ld+kk] = v
		}
	}
	return true
}
