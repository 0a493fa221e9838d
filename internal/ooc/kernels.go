package ooc

// The in-place panel kernels. Each pass of the out-of-core schedule
// permutes every column (vertical passes) or every row (the row
// shuffle) of the resident panel independently, so a worker moves one
// line at a time: it gathers the column or row into its scratch line in
// permuted order, then copies the line back. The panel is read, undo-
// journaled, transformed and written from a single buffer, so resident
// memory is one panel plus one line per worker.
//
// The kernels operate on raw bytes with a runtime element size, because
// the backend is untyped storage. All index algebra comes from the
// cr.Plan the schedule resolved; the per-element indices are stepped
// incrementally rather than recomputed, so the inner loops carry no
// division.

// move copies the e-byte element at src[so:] to dst[do:]. The element
// size is invariant across a run, so the branch predicts perfectly, and
// the constant-length copy of the dominant 8-byte case compiles to a
// single load/store pair instead of a memmove call.
//
//xpose:hotpath
func move(dst []byte, do int, src []byte, so, e int) {
	if e == 8 {
		copy(dst[do:do+8], src[so:so+8])
		return
	}
	copy(dst[do:do+e], src[so:so+e])
}

// colPanel permutes panel columns [lo, hi) in place through line. g is
// the panel geometry; the panel is row-packed with g.ext columns per
// row, so column jj's element i lives at (i*g.ext+jj)*elem.
//
// The rotations (opRotPre, Equation 23; opRotNegPre, Equation 36) gather
// row i from (i ± ⌊j/b⌋) mod m. The fused column shuffle gathers row i
// of column j from s'_j(i) = (q(i) + j) mod m (opColC2R, Equations 26
// and 33) — the rotation p_j and the row permute q in one move — and its
// inverse scatters row i to that same index (opColR2C, Equations 34 and
// 35). Along a column, q steps by n mod m per row, less one every a
// rows.
//
//xpose:hotpath
func (s *schedule) colPanel(buf, line []byte, g unitGeom, op passOp, lo, hi int) {
	m, e := s.m, s.elem
	stride := g.ext * e
	divM := s.plan.DivM()
	for jj := lo; jj < hi; jj++ {
		j := g.lo + jj
		col := buf[jj*e:]
		switch op {
		case opRotPre, opRotNegPre:
			r := s.plan.Rot(j)
			if op == opRotNegPre {
				r = -r
			}
			si := divM.SMod(r)
			if si == 0 {
				continue // unrotated column
			}
			for i := 0; i < m; i++ {
				move(line, i*e, col, si*stride, e)
				if si++; si == m {
					si = 0
				}
			}
		default: // opColC2R, opColR2C
			src := divM.Mod(j) // s'_j(0) = j mod m
			a, ai := s.plan.A, 0
			for i := 0; i < m; i++ {
				if op == opColC2R {
					move(line, i*e, col, src*stride, e) // line[i] = col[s'_j(i)]
				} else {
					move(line, src*e, col, i*stride, e) // line[s'_j(i)] = col[i]
				}
				src += s.nm
				if ai++; ai == a {
					ai = 0
					src--
				}
				if src >= m {
					src -= m
				} else if src < 0 {
					src += m
				}
			}
		}
		for i := 0; i < m; i++ {
			move(col, i*stride, line, i*e, e)
		}
	}
}

// rowPanel applies the row shuffle in place to panel rows [lo, hi)
// through line: R2C gathers element j of global row i from d'_i(j)
// (opShuffleR2C, Equation 24); C2R scatters element j to d'_i(j), which
// is the gather through d'^{-1}_i (opShuffleC2R, Equation 31) without
// its divisions. Horizontal panels hold g.ext full rows of n elements.
//
// d'_i(j) = ((i + ⌊j/b⌋) mod m + j·m) mod n is stepped along the row:
// j·m mod n grows by m mod n per element, and the rotation term grows by
// one every b elements.
//
//xpose:hotpath
func (s *schedule) rowPanel(buf, line []byte, g unitGeom, op passOp, lo, hi int) {
	m, n, e := s.m, s.n, s.elem
	divM, divN := s.plan.DivM(), s.plan.DivN()
	mn := divN.Mod(m)
	b := s.plan.B
	rb := n * e
	for ii := lo; ii < hi; ii++ {
		row := buf[ii*rb : ii*rb+rb]
		rot := divM.Mod(g.lo + ii) // (i + ⌊j/b⌋) mod m at j = 0
		jm, bi := 0, 0             // j·m mod n; j mod b
		for j := 0; j < n; j++ {
			d := rot + jm
			if d >= n {
				d = divN.Mod(d)
			}
			if op == opShuffleR2C {
				move(line, j*e, row, d*e, e)
			} else {
				move(line, d*e, row, j*e, e)
			}
			if jm += mn; jm >= n {
				jm -= n
			}
			if bi++; bi == b {
				bi = 0
				if rot++; rot == m {
					rot = 0
				}
			}
		}
		copy(row, line[:rb])
	}
}

// transform permutes one resident panel in place, splitting its
// columns (vertical passes) or rows (the row shuffle) across the
// workers; worker w moves its lines through lines[w].
func (s *schedule) transform(p pass, g unitGeom, buf []byte, lines [][]byte, pf parallelFor) {
	if p.kind == passVertical {
		pf(g.ext, func(w, lo, hi int) { s.colPanel(buf, lines[w], g, p.op, lo, hi) })
		return
	}
	pf(g.ext, func(w, lo, hi int) { s.rowPanel(buf, lines[w], g, p.op, lo, hi) })
}

// parallelFor splits [0, n) across workers and blocks until every chunk
// ran, passing each chunk its worker index. The runner provides either
// an inline implementation (one worker) or a dispatch onto the shared
// persistent pool.
type parallelFor func(n int, body func(worker, lo, hi int))
