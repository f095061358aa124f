package core_test

// Cross-thread check of the dispatch layer: the worker pool and the
// nnz-balanced partitions are pure dispatch, so the alignment must be
// a valid matching at every thread count. Across thread counts only
// float reduction order can differ, so objectives are compared to
// 1e-9.

import (
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
)

func TestPoolPartitionMatrixBP(t *testing.T) {
	p := smallSynthetic(t, 107)
	poolPartitionMatrix(t, p, func(threads int) *core.AlignResult {
		return runBP(p, core.BPOptions{
			Iterations: 10, Threads: threads,
			Matcher: matching.MatcherSpec{Name: "approx"},
		})
	})
}

func TestPoolPartitionMatrixMR(t *testing.T) {
	p := smallSynthetic(t, 109)
	poolPartitionMatrix(t, p, func(threads int) *core.AlignResult {
		return runMR(p, core.MROptions{
			Iterations: 10, Threads: threads,
			Matcher: matching.MatcherSpec{Name: "approx"},
		})
	})
}

func poolPartitionMatrix(t *testing.T, p *core.Problem, solve func(threads int) *core.AlignResult) {
	t.Helper()
	var crossThreadRef float64
	for _, threads := range []int{1, 2, 4, 8} {
		r := solve(threads)
		if err := r.Matching.Validate(p.L); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if threads == 1 {
			crossThreadRef = r.Objective
		} else if math.Abs(r.Objective-crossThreadRef) > 1e-9 {
			t.Fatalf("threads=%d: objective %g deviates from 1-thread %g", threads, r.Objective, crossThreadRef)
		}
	}
}
