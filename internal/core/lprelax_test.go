package core_test

import (
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
)

func TestLPRelaxationTiny(t *testing.T) {
	// On the K2/K2 problem the LP optimum equals the integral optimum
	// (4): take either perfect matching with its overlap pair.
	p := tinyCoreProblem(t)
	res, err := p.LPRelaxation(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound < 4-1e-6 {
		t.Fatalf("LP bound %g below integral optimum 4", res.Bound)
	}
	if err := res.Rounded.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	if res.Rounded.Objective > res.Bound+1e-6 {
		t.Fatalf("rounded objective %g above LP bound %g", res.Rounded.Objective, res.Bound)
	}
}

// tinyCoreProblem rebuilds the K2/K2 instance through gen-free code so
// the external test package can use it.
func tinyCoreProblem(t testing.TB) *core.Problem {
	t.Helper()
	o := gen.DefaultSynthetic(0, 1)
	o.N = 2
	o.PerturbProb = 1 // force the single edge in both graphs
	p, err := gen.Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLPBoundDominatesHeuristics(t *testing.T) {
	// The relaxation value upper-bounds every integral alignment, in
	// particular BP's and MR's results — and the paper's claim is that
	// both methods outperform the LP rounding itself.
	o := gen.DefaultSynthetic(2, 9)
	o.N = 25
	o.MaxDeg = 6
	p, err := gen.Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.LPRelaxation(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bp := runBP(p, core.BPOptions{Iterations: 25})
	mr := runMR(p, core.MROptions{Iterations: 25})
	if bp.Objective > res.Bound+1e-6 {
		t.Fatalf("BP %g exceeds LP bound %g", bp.Objective, res.Bound)
	}
	if mr.Objective > res.Bound+1e-6 {
		t.Fatalf("MR %g exceeds LP bound %g", mr.Objective, res.Bound)
	}
	// §III: "Both of the algorithms below outperform this procedure."
	// On easy planted problems they must at least match it.
	if bp.Objective < res.Rounded.Objective-1e-6 {
		t.Fatalf("BP %g below LP rounding %g", bp.Objective, res.Rounded.Objective)
	}
}

func TestLPRelaxationVarLimit(t *testing.T) {
	p := tinyCoreProblem(t)
	if _, err := p.LPRelaxation(1, 1); err == nil {
		t.Fatal("variable limit not enforced")
	}
}
