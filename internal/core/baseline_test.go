package core_test

import (
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
)

func TestBaselineRoundWeights(t *testing.T) {
	p := smallSynthetic(t, 3)
	res := p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineRoundWeights})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	if res.Objective <= 0 {
		t.Fatalf("baseline objective %g", res.Objective)
	}
	// BP must beat or match the round-weights baseline — that is the
	// point of running the iteration at all.
	bp := runBP(p, core.BPOptions{Iterations: 25})
	if bp.Objective < res.Objective-1e-9 {
		t.Fatalf("BP %g below round-weights baseline %g", bp.Objective, res.Objective)
	}
}

func TestBaselineIsoRank(t *testing.T) {
	p := smallSynthetic(t, 5)
	res := p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineIsoRank, Iterations: 15})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	if res.Objective <= 0 {
		t.Fatalf("isorank objective %g", res.Objective)
	}
	// Propagation should help overlap versus rounding raw weights on a
	// planted problem (identity edges reinforce each other through S).
	plain := p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineRoundWeights})
	if res.Overlap < 0.5*plain.Overlap {
		t.Fatalf("isorank overlap %g collapsed versus plain %g", res.Overlap, plain.Overlap)
	}
}

func TestBaselineApproxRounding(t *testing.T) {
	p := smallSynthetic(t, 7)
	res := p.BaselineAlign(core.BaselineOptions{
		Kind: core.BaselineIsoRank, Matcher: matching.MatcherSpec{Name: "approx"},
	})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
}

// An invalid matcher spec fails the baseline through AlignResult.Err,
// as it fails Align, instead of rounding with some other matcher.
func TestBaselineRejectsInvalidMatcher(t *testing.T) {
	p := smallSynthetic(t, 7)
	res := p.BaselineAlign(core.BaselineOptions{Matcher: matching.MatcherSpec{Name: "exact", Eps: 1}})
	if res.Err == nil {
		t.Fatal("invalid matcher spec accepted")
	}
}

func TestBaselineKindString(t *testing.T) {
	if core.BaselineRoundWeights.String() != "round-weights" ||
		core.BaselineIsoRank.String() != "isorank" ||
		core.BaselineNSD.String() != "nsd" {
		t.Fatal("baseline names wrong")
	}
}

func TestBaselineNSD(t *testing.T) {
	p := smallSynthetic(t, 31)
	res := p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineNSD, Iterations: 15})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	if res.Objective <= 0 {
		t.Fatalf("NSD objective %g", res.Objective)
	}
	// Degree normalization must not collapse the planted signal.
	plain := p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineRoundWeights})
	if res.Overlap < 0.5*plain.Overlap {
		t.Fatalf("NSD overlap %g collapsed vs plain %g", res.Overlap, plain.Overlap)
	}
}

func TestDampingVariants(t *testing.T) {
	p := smallSynthetic(t, 9)
	for _, d := range []core.Damping{core.DampPower, core.DampConstant, core.DampNone} {
		res := runBP(p, core.BPOptions{Iterations: 15, Damp: d, Gamma: 0.9})
		if err := res.Matching.Validate(p.L); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Objective <= 0 {
			t.Fatalf("%v: objective %g", d, res.Objective)
		}
	}
	if core.DampPower.String() != "power" || core.DampConstant.String() != "constant" || core.DampNone.String() != "none" {
		t.Fatal("damping names wrong")
	}
}

func TestMRGapEarlyStop(t *testing.T) {
	// On an easy planted instance MR's bounds close quickly; with a
	// loose tolerance the run must stop before the iteration cap and
	// still return a valid, good matching.
	p := smallSynthetic(t, 11)
	res := runMR(p, core.MROptions{Iterations: 200, GapTolerance: 0.05})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Skip("instance did not converge within tolerance; not an error for a heuristic")
	}
	if res.ConvergedIter <= 0 || res.Iterations != res.ConvergedIter {
		t.Fatalf("converged at %d but Iterations = %d", res.ConvergedIter, res.Iterations)
	}
	if res.Iterations >= 200 {
		t.Fatalf("claimed convergence only at the cap (%d)", res.Iterations)
	}
}

func TestMRGapStopRespectsBounds(t *testing.T) {
	p := smallSynthetic(t, 13)
	res := runMR(p, core.MROptions{Iterations: 60, GapTolerance: 1e-6, Trace: true})
	if res.Converged {
		// If the gap provably closed, the objective must equal the
		// final upper bound within tolerance.
		minUpper := math.Inf(1)
		for _, u := range res.Upper {
			if u < minUpper {
				minUpper = u
			}
		}
		if res.Objective < minUpper-1e-3*(1+math.Abs(minUpper)) {
			t.Fatalf("converged but objective %g far below upper bound %g", res.Objective, minUpper)
		}
	}
}

func TestMRGreedyRowMatch(t *testing.T) {
	p := smallSynthetic(t, 21)
	exact := runMR(p, core.MROptions{Iterations: 15})
	greedy := runMR(p, core.MROptions{Iterations: 15, GreedyRowMatch: true})
	if err := greedy.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	// Greedy rows give a valid run; on easy planted problems the
	// objective should stay in the same ballpark as exact rows.
	if greedy.Objective < 0.7*exact.Objective {
		t.Fatalf("greedy rows collapsed: %g vs %g", greedy.Objective, exact.Objective)
	}
}

func TestReportAndSteering(t *testing.T) {
	p := smallSynthetic(t, 17)
	res := runBP(p, core.BPOptions{Iterations: 20})

	// Reference = the planted identity matching.
	refA := make([]int, p.A.NumVertices())
	refB := make([]int, p.B.NumVertices())
	for i := range refA {
		refA[i] = i
	}
	for i := range refB {
		refB[i] = i
	}
	ref := matching.NewResult(p.L, refA, refB)

	rep := p.NewReport(res.Matching, ref, 1)
	if rep.Card != res.Matching.Card {
		t.Fatalf("report card %d != %d", rep.Card, res.Matching.Card)
	}
	if math.Abs(rep.Overlap-res.Overlap) > 1e-9 {
		t.Fatalf("report overlap %g != %g", rep.Overlap, res.Overlap)
	}
	if len(rep.OverlappedPairs) != int(rep.Overlap) {
		t.Fatalf("%d overlapped pairs listed but overlap = %g", len(rep.OverlappedPairs), rep.Overlap)
	}
	if rep.Precision <= 0 || rep.Recall <= 0 {
		t.Fatalf("precision/recall = %g/%g on a recovered planted problem", rep.Precision, rep.Recall)
	}
	if rep.EdgeCorrectness <= 0 || rep.EdgeCorrectness > 1 {
		t.Fatalf("edge correctness %g out of (0,1]", rep.EdgeCorrectness)
	}
	if rep.String() == "" {
		t.Fatal("empty report")
	}

	// Steering: remove the first matched candidate edge and re-solve;
	// the removed pair must not reappear.
	var removed int = -1
	for a, b := range res.Matching.MateA {
		if b >= 0 {
			if e, ok := p.L.Find(a, b); ok {
				removed = e
				break
			}
		}
	}
	if removed < 0 {
		t.Fatal("no matched edge to remove")
	}
	ra, rb := p.L.EdgeA[removed], p.L.EdgeB[removed]
	p2, err := p.RemoveCandidates([]int{removed}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p2.L.NumEdges() != p.L.NumEdges()-1 {
		t.Fatalf("removal kept %d edges", p2.L.NumEdges())
	}
	res2 := runBP(p2, core.BPOptions{Iterations: 15})
	if res2.Matching.MateA[ra] == rb {
		t.Fatal("removed candidate reappeared in the new solution")
	}
	if _, err := p.RemoveCandidates([]int{-1}, 1); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
}

func TestBPWarmStart(t *testing.T) {
	p := smallSynthetic(t, 33)
	// Capture the final messages of a first solve via the observer.
	var lastY, lastZ []float64
	first := runBP(p, core.BPOptions{
		Iterations: 25,
		Observer: func(iter int, y, z []float64) {
			lastY = append(lastY[:0], y...)
			lastZ = append(lastZ[:0], z...)
		},
	})

	// Steering edit: drop one candidate, transfer the messages.
	e, ok := p.L.Find(1, 1)
	if !ok {
		t.Skip("no identity edge to remove")
	}
	p2, err := p.RemoveCandidates([]int{e}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wy, err := core.TransferEdgeVector(p, p2, lastY)
	if err != nil {
		t.Fatal(err)
	}
	wz, err := core.TransferEdgeVector(p, p2, lastZ)
	if err != nil {
		t.Fatal(err)
	}
	warm := runBP(p2, core.BPOptions{Iterations: 6, WarmY: wy, WarmZ: wz})
	cold := runBP(p2, core.BPOptions{Iterations: 6})
	if err := warm.Matching.Validate(p2.L); err != nil {
		t.Fatal(err)
	}
	// Warm start must reach at least the cold quality in the same
	// (short) budget on this easy instance.
	if warm.Objective < cold.Objective-1e-9 {
		t.Fatalf("warm %g below cold %g", warm.Objective, cold.Objective)
	}
	// Sanity: the first solve was good.
	if first.Objective <= 0 {
		t.Fatal("first solve degenerate")
	}

	// Length validation of the transfer helper.
	if _, err := core.TransferEdgeVector(p, p2, []float64{1}); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestPinCandidates(t *testing.T) {
	p := smallSynthetic(t, 19)
	// Pin the identity candidate of vertex 0.
	e, ok := p.L.Find(0, 0)
	if !ok {
		t.Skip("no identity edge for vertex 0")
	}
	p2, err := p.PinCandidates([]int{e}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 of A must now have exactly one candidate.
	if p2.L.DegreeA(0) != 1 {
		t.Fatalf("pinned vertex has %d candidates", p2.L.DegreeA(0))
	}
	res := runBP(p2, core.BPOptions{Iterations: 15})
	if res.Matching.MateA[0] != 0 && res.Matching.MateA[0] != -1 {
		t.Fatalf("pinned vertex matched to %d", res.Matching.MateA[0])
	}
	if _, err := p.PinCandidates([]int{99999999}, 1); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
}
