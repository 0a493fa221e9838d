package core

import (
	"inplace/internal/cr"
	"inplace/internal/perm"
)

// This file implements the cache-aware column passes (§4.6, §4.7,
// §5.2) as panel gathers. A column pass permutes every column of the
// m×n array independently, but moving one column at a time jumps a
// whole row between consecutive elements. The panel passes instead take
// W adjacent columns at a time: the worker copies the m×W panel into
// its scratch buffer and writes it back permuted, so every access to
// the array is a W-element run of one row.
//
// Each pass is a rotation of the panel's columns by per-column amounts
// composed with a row permutation shared by all columns:
//
//	pre-rotation (C2R, Eq. 23):   out[i][j] = in[(i + ⌊j/b⌋) mod m][j]
//	post-rotation (R2C, Eq. 36):  out[i][j] = in[(i − ⌊j/b⌋) mod m][j]
//	column shuffle (C2R):         out[i][j] = in[(q(i) + j) mod m][j]
//	inverse shuffle (R2C):        out[i][j] = in[q⁻¹((i − j) mod m)][j]
//
// The column shuffle is the rotation p_j and the row permutation q of
// Equations 32–33 in one move. The rotation is applied where its
// accesses are consecutive in the scratch buffer — scattering each
// input row along a diagonal of the buffer on the way in (C2R), or
// gathering each output row along one on the way out (R2C) — and the
// row permutation as whole panel-row copies on the other side. q is
// stepped incrementally (q(i+1) = q(i) + n mod m, less one every a
// rows), so no pass needs a table or a division per row.

// panelOp names the permutation a panel pass applies.
type panelOp uint8

const (
	panelPre  panelOp = iota // C2R pre-rotation by ⌊j/b⌋
	panelPost                // R2C post-rotation by −⌊j/b⌋
	panelC2R                 // fused C2R column shuffle: rotation by j, then q
	panelR2C                 // fused R2C column shuffle: q⁻¹, then rotation by −j
)

// panelRange runs pass op over the panels [plo, phi) of width pw. fr
// supplies the m×pw panel buffer and the per-column offsets.
//
//xpose:hotpath
func panelRange[T any](data []T, p *cr.Plan, pw int, op panelOp, fr *frame[T], plo, phi int) {
	m, n := p.M, p.N
	for g := plo; g < phi; g++ {
		j0 := g * pw
		w := min(pw, n-j0)
		off := fr.offsets(w)
		kind := panelAmounts(p, op, j0, off)
		if kind == amountsUniform && op <= panelPost && off[0] == 0 {
			continue // an unrotated panel of a plain rotation
		}
		buf := fr.elems(m * w)
		if op == panelR2C {
			panelRowsIn(data, buf, p, j0, w)
			panelRotateOut(data, buf, off, m, n, j0, w)
		} else {
			panelRotateIn(data, buf, off, kind, m, n, j0, w)
			panelRowsOut(data, buf, p, op == panelC2R, j0, w)
		}
	}
}

// amounts classifies a panel's rotation amounts.
type amounts uint8

const (
	amountsUniform     amounts = iota // one amount for every column
	amountsConsecutive                // off[jj] = off[0] + jj
	amountsMixed                      // anything else
)

// panelAmounts fills off with the rotation amount of every column of
// the panel starting at column j0, normalized to [0, m), and classifies
// them. The amounts step along the panel without a division: ⌊j/b⌋
// grows by one every b columns and stays below c <= m; ±j mod m steps
// by one and wraps. A plain rotation's panel is uniform when its first
// and last amounts agree, and then only off[0] is filled.
func panelAmounts(p *cr.Plan, op panelOp, j0 int, off []int) amounts {
	m, w := p.M, len(off)
	switch op {
	case panelPre, panelPost:
		a := p.Rot(j0)
		if p.Rot(j0+w-1) == a {
			off[0] = a
			if op == panelPost && a != 0 {
				off[0] = m - a
			}
			return amountsUniform
		}
		jb := j0 - a*p.B // j mod b
		for jj := range off {
			off[jj] = a
			if op == panelPost && a != 0 {
				off[jj] = m - a
			}
			if jb++; jb == p.B {
				jb, a = 0, a+1
			}
		}
	case panelC2R:
		a := p.DivM().Mod(j0)
		for jj := range off {
			off[jj] = a
			if a++; a == m {
				a = 0
			}
		}
	default:
		a := m - p.DivM().Mod(j0)
		if a == m {
			a = 0
		}
		for jj := range off {
			off[jj] = a
			if a == 0 {
				a = m
			}
			a--
		}
	}
	switch {
	case m == 1 || w == 1:
		return amountsUniform
	case op == panelC2R && off[0]+w-1 < m:
		return amountsConsecutive
	}
	return amountsMixed
}

// panelRotateIn copies panel column j0+jj of every row r to buffer row
// (r − off[jj]) mod m, so buffer row k holds in[(k + off[jj]) mod m] in
// column jj. A uniform amount moves each row with one copy. Mixed
// amounts overwrite off with the buffer offsets of row 0.
//
//xpose:hotpath
func panelRotateIn[T any](data, buf []T, off []int, kind amounts, m, n, j0, w int) {
	if kind == amountsUniform {
		k := m - off[0]
		if k == m {
			k = 0
		}
		for r := 0; r < m; r++ {
			copy(buf[k*w:k*w+w], data[r*n+j0:r*n+j0+w])
			if k++; k == m {
				k = 0
			}
		}
		return
	}
	mw := m * w
	if kind == amountsConsecutive {
		// The column shuffle's j mod m, not wrapping inside the panel:
		// element jj of row r lands at (r − a0)·w − jj·(w−1), plus m·w
		// once r − a0 − jj < 0.
		a0 := off[0]
		for r := 0; r < m; r++ {
			row := data[r*n+j0 : r*n+j0+w]
			k := min(max(r-a0+1, 0), w) // columns jj < k do not wrap
			d := (r - a0) * w
			for _, v := range row[:k] {
				buf[d] = v
				d -= w - 1
			}
			d += mw
			for _, v := range row[k:] {
				buf[d] = v
				d -= w - 1
			}
		}
		return
	}
	// Element jj of row r lands at (r − off[jj])·w + jj, plus m·w when
	// that is negative: with the row-0 offset jj − off[jj]·w in hand
	// the loop only adds.
	for jj := range off {
		off[jj] = jj - off[jj]*w
	}
	for r := 0; r < m; r++ {
		rw := r * w
		for jj, v := range data[r*n+j0 : r*n+j0+w] {
			d := rw + off[jj]
			if d < 0 {
				d += mw
			}
			buf[d] = v
		}
	}
}

// panelRotateOut writes panel column j0+jj of every row i from buffer
// row (i + off[jj]) mod m. off is overwritten with the buffer offsets
// of row 0.
//
//xpose:hotpath
func panelRotateOut[T any](data, buf []T, off []int, m, n, j0, w int) {
	mw := m * w
	for jj := range off {
		off[jj] = jj + off[jj]*w
	}
	for i := 0; i < m; i++ {
		iw := i * w
		row := data[i*n+j0 : i*n+j0+w]
		for jj := range row {
			s := iw + off[jj]
			if s >= mw {
				s -= mw
			}
			row[jj] = buf[s]
		}
	}
}

// panelRowsOut copies buffer row q(i) (permute) or i over panel row i.
//
//xpose:hotpath
func panelRowsOut[T any](data, buf []T, p *cr.Plan, permute bool, j0, w int) {
	m, n := p.M, p.N
	if !permute {
		for i := 0; i < m; i++ {
			copy(data[i*n+j0:i*n+j0+w], buf[i*w:i*w+w])
		}
		return
	}
	q := newQStep(p)
	for i := 0; i < m; i++ {
		copy(data[i*n+j0:i*n+j0+w], buf[q.i*w:q.i*w+w])
		q.next()
	}
}

// panelRowsIn copies panel row r to buffer row q(r), so buffer row k
// holds in[q⁻¹(k)].
//
//xpose:hotpath
func panelRowsIn[T any](data, buf []T, p *cr.Plan, j0, w int) {
	m, n := p.M, p.N
	q := newQStep(p)
	for r := 0; r < m; r++ {
		copy(buf[q.i*w:q.i*w+w], data[r*n+j0:r*n+j0+w])
		q.next()
	}
}

// qStep walks q(0), q(1), ... of Equation 33,
// q(i) = (i·n − ⌊i/a⌋) mod m, with one addition per step: q grows by
// n mod m per row, less one every a rows.
type qStep struct {
	i          int // q of the current row
	m, nm, a   int
	rowInGroup int // current row mod a
}

func newQStep(p *cr.Plan) qStep {
	return qStep{m: p.M, nm: p.DivM().Mod(p.N), a: p.A}
}

func (q *qStep) next() {
	q.i += q.nm
	if q.rowInGroup++; q.rowInGroup == q.a {
		q.rowInGroup = 0
		q.i--
	}
	if q.i >= q.m {
		q.i -= q.m
	} else if q.i < 0 {
		q.i += q.m
	}
}

// rowCyclesRange permutes whole n-element rows, out[i] = in[p[i]], for
// the cycles led by leaders (§4.7): the skinny pipeline's row
// permutation q, which moves contiguous rows. spare must hold at least n
// elements.
//
//xpose:hotpath
func rowCyclesRange[T any](data []T, n int, p perm.P, leaders, lengths []int, spare []T) {
	perm.GatherChunksStrided(data, 0, n, n, p, leaders, lengths, spare)
}
