package core

import "netalignmc/internal/sparse"

// ReferenceBP exposes referenceBP to the external test package.
var ReferenceBP = referenceBP

// referenceBP is the step-by-step serial BP iteration of Listing 2:
// bound F, compute d, othermax, update S^(k), then damp y, z and
// S^(k), each step one full pass over its index space, with none of
// the solver's sweep fusion, parallel dispatch, reordering or numeric
// guard. It calls observe with every iteration's damped y and z (the
// vectors are reused; copy before retaining). The solver must
// reproduce these iterates bit for bit.
func referenceBP(p *Problem, iters int, gamma float64, damp Damping, observe func(iter int, y, z []float64)) {
	mEL, nnz := p.L.NumEdges(), p.S.NNZ()
	vec := func(n int) []float64 { return make([]float64, n) }
	y, z, yPrev, zPrev := vec(mEL), vec(mEL), vec(mEL), vec(mEL)
	d, om, om2 := vec(mEL), vec(mEL), vec(mEL)
	f, sk, skPrev := vec(nnz), vec(nnz), vec(nnz)
	sVal := p.S.Val
	gammaK := 1.0
	for iter := 1; iter <= iters; iter++ {
		// Step 1: F = bound_{0,β}(β·S + S^(k−1)ᵀ).
		for k := 0; k < nnz; k++ {
			f[k] = sparse.Bound(p.Beta*sVal[k]+skPrev[p.SPerm[k]], 0, p.Beta)
		}
		// Step 2: d = αw + F·e.
		for e := 0; e < mEL; e++ {
			s := 0.0
			lo, hi := p.S.RowRange(e)
			for k := lo; k < hi; k++ {
				s += f[k]
			}
			d[e] = p.Alpha*p.L.W[e] + s
		}
		// Step 3: y = d − othermaxcol(z), z = d − othermaxrow(y).
		othermaxColsRange(om2, zPrev, p.L, 0, p.L.NB)
		othermaxRowsRange(om, yPrev, p.L, 0, p.L.NA)
		for e := 0; e < mEL; e++ {
			y[e] = d[e] - om2[e]
			z[e] = d[e] - om[e]
		}
		// Step 4: S^(k) = diag(y + z − d)·S − F.
		for k := 0; k < nnz; k++ {
			r := p.SRow[k]
			sk[k] = (y[r]+z[r]-d[r])*sVal[k] - f[k]
		}
		// Step 5: damping against the previous iterates.
		gammaK *= gamma
		g := gammaK
		switch damp {
		case DampConstant:
			g = gamma
		case DampNone:
			g = 1
		}
		for e := 0; e < mEL; e++ {
			y[e] = g*y[e] + (1-g)*yPrev[e]
			z[e] = g*z[e] + (1-g)*zPrev[e]
		}
		for k := 0; k < nnz; k++ {
			sk[k] = g*sk[k] + (1-g)*skPrev[k]
		}
		y, yPrev = yPrev, y
		z, zPrev = zPrev, z
		sk, skPrev = skPrev, sk
		observe(iter, yPrev, zPrev)
	}
}
