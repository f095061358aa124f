package core_test

import (
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
)

// tinyRandomProblem builds a problem small enough for brute force.
func tinyRandomProblem(t testing.TB, seed int64, dbar float64) *core.Problem {
	t.Helper()
	o := gen.DefaultSynthetic(dbar, seed)
	o.N = 8
	o.MaxDeg = 4
	p, err := gen.Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	if p.L.NumEdges() > 40 {
		t.Skip("instance too large for brute force")
	}
	return p
}

func TestBruteForceAlignTiny(t *testing.T) {
	p := tinyRandomProblem(t, 3, 1)
	opt, m := p.BruteForceAlign(0)
	if err := m.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	if got := p.ObjectiveOfMatching(m, 1); math.Abs(got-opt) > 1e-9 {
		t.Fatalf("reported optimum %g but matching scores %g", opt, got)
	}
	// The identity alignment is feasible, so opt dominates it.
	if id := p.Objective(p.IdentityIndicator(), 1); opt < id-1e-9 {
		t.Fatalf("optimum %g below identity %g", opt, id)
	}
}

func TestHeuristicsBoundedByBruteOptimum(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := tinyRandomProblem(t, seed, 1.5)
		opt, _ := p.BruteForceAlign(0)
		bp := runBP(p, core.BPOptions{Iterations: 30})
		mr := runMR(p, core.MROptions{Iterations: 30})
		if bp.Objective > opt+1e-9 {
			t.Fatalf("seed %d: BP %g exceeds optimum %g", seed, bp.Objective, opt)
		}
		if mr.Objective > opt+1e-9 {
			t.Fatalf("seed %d: MR %g exceeds optimum %g", seed, mr.Objective, opt)
		}
		// On these tiny planted instances the heuristics should reach
		// at least 90% of the optimum.
		if bp.Objective < 0.9*opt-1e-9 {
			t.Fatalf("seed %d: BP %g far below optimum %g", seed, bp.Objective, opt)
		}
	}
}

func TestLPBoundDominatesBruteOptimum(t *testing.T) {
	p := tinyRandomProblem(t, 11, 1)
	opt, _ := p.BruteForceAlign(0)
	lpRes, err := p.LPRelaxation(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lpRes.Bound < opt-1e-6 {
		t.Fatalf("LP bound %g below brute optimum %g", lpRes.Bound, opt)
	}
}

func TestMRGapCertificateMatchesBrute(t *testing.T) {
	// When MR declares convergence, its objective must equal the brute
	// optimum (the whole point of the bound certificate).
	for seed := int64(20); seed <= 26; seed++ {
		p := tinyRandomProblem(t, seed, 1)
		res := runMR(p, core.MROptions{Iterations: 80, GapTolerance: 1e-9})
		if !res.Converged {
			continue
		}
		opt, _ := p.BruteForceAlign(0)
		if math.Abs(res.Objective-opt) > 1e-6*(1+math.Abs(opt)) {
			t.Fatalf("seed %d: MR certified %g but optimum is %g", seed, res.Objective, opt)
		}
	}
}

func TestBruteForceAlignEdgeLimit(t *testing.T) {
	p := tinyRandomProblem(t, 5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("edge limit not enforced")
		}
	}()
	p.BruteForceAlign(1)
}
