// Package core implements the in-place transposition engines of the
// paper: the sequential Algorithm 1 (scatter-based), the gather-only
// parallel CPU formulation (§5.1), the cache-aware formulation (§4.6,
// §4.7, §5.2), and the skinny specialization for AoS↔SoA conversion
// (§6.1).
//
// The cache-aware engine runs every column pass as a panel gather: a
// worker copies W adjacent columns (a 512-byte panel row by default)
// into scratch and writes each row back permuted, and the column
// shuffle's rotation p_j and row permutation q run as one such pass. A
// C2R or R2C transpose is then three passes over the array —
// pre-rotation, row shuffle, column shuffle — or two when
// gcd(m, n) = 1, at the price of m·W elements of scratch per worker.
//
// All engines operate on a flat slice holding a row-major m×n array and
// permute it so that afterwards the same slice holds the row-major n×m
// transpose (Theorem 1: the C2R permutation, applied with row-major
// indexing, linearizes the transpose). The R2C engines apply the exact
// inverse permutation.
package core

import "inplace/internal/mathutil"

// OutOfPlace writes the transpose of the row-major m×n array src into
// dst (row-major n×m) and is the correctness oracle for every in-place
// engine. dst and src must not alias.
func OutOfPlace[T any](dst, src []T, m, n int) {
	mn, ok := mathutil.CheckedMul(m, n)
	if !ok || len(src) != mn || len(dst) != mn {
		panic("core: OutOfPlace length mismatch")
	}
	for i := 0; i < m; i++ {
		row := src[i*n : i*n+n]
		for j, v := range row {
			dst[j*m+i] = v
		}
	}
}

// GatherC2R materializes the out-of-place C2R permutation of Equation 11:
// dst[i*n+j] = src at (s(i,j), c(i,j)). Used by tests to validate that
// the in-place pipeline realizes exactly this permutation.
func GatherC2R[T any](dst, src []T, m, n int) {
	mn, ok := mathutil.CheckedMul(m, n)
	if !ok || len(src) != mn || len(dst) != mn {
		panic("core: GatherC2R length mismatch")
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			l := i*n + j
			s, c := l%m, l/m
			dst[l] = src[s*n+c]
		}
	}
}

// GatherR2C materializes the out-of-place R2C permutation of Equation 12:
// dst[i*n+j] = src at (t(i,j), d(i,j)). It is the inverse of GatherC2R.
func GatherR2C[T any](dst, src []T, m, n int) {
	mn, ok := mathutil.CheckedMul(m, n)
	if !ok || len(src) != mn || len(dst) != mn {
		panic("core: GatherR2C length mismatch")
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			l := i + j*m
			dst[i*n+j] = src[(l/n)*n+l%n]
		}
	}
}
