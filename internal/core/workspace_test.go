package core_test

// Tests for the PR's two hot-path claims:
//
//  1. Zero allocation: with a warm Workspace, Threads=1 and a reusable
//     matcher spec, the per-iteration allocation count of a solve is
//     exactly zero. Measured by the delta method — allocations of a
//     2N-iteration solve minus an N-iteration solve — so per-solve
//     constants (tracker, option copies, hoisted closures) cancel and
//     only per-iteration costs remain.
//  2. Bit identity: the solver's fused othermax+damping and
//     updateS+damping sweeps produce bitwise identical message
//     iterates to the step-by-step serial reference of Listing 2,
//     across the batch/threads/damping/reorder option axes.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
)

// allocsPerIter measures the per-iteration allocation count of solve
// by the delta method.
func allocsPerIter(t *testing.T, solve func(iters int)) float64 {
	t.Helper()
	const n = 8
	base := testing.AllocsPerRun(3, func() { solve(n) })
	double := testing.AllocsPerRun(3, func() { solve(2 * n) })
	return (double - base) / n
}

// zeroAllocSpecs are the rounding matchers with reusable scratch whose
// warm solves must not allocate per iteration: the paper's approximate
// matcher and the default (zero-value) exact matcher.
var zeroAllocSpecs = []matching.MatcherSpec{{Name: "approx"}, {}}

func TestBPSteadyStateZeroAlloc(t *testing.T) {
	for _, spec := range zeroAllocSpecs {
		t.Run(spec.String(), func(t *testing.T) {
			p := smallSynthetic(t, 101)
			ws := core.NewWorkspace()
			solve := func(iters int) {
				res, err := p.Align(context.Background(), core.Options{Method: core.MethodBP, BP: core.BPOptions{
					Iterations: iters, Threads: 1, Batch: 1,
					Matcher:        spec,
					Workspace:      ws,
					SkipFinalExact: true,
				}})
				if err != nil {
					t.Fatal(err)
				}
				if res.Matching == nil {
					t.Fatal("no matching")
				}
			}
			solve(4) // warm the workspace and matcher scratch
			if got := allocsPerIter(t, solve); got != 0 {
				t.Errorf("BP iteration allocates %.2f objects/iter, want 0", got)
			}
		})
	}
}

func TestMRSteadyStateZeroAlloc(t *testing.T) {
	for _, spec := range zeroAllocSpecs {
		t.Run(spec.String(), func(t *testing.T) {
			p := smallSynthetic(t, 102)
			ws := core.NewWorkspace()
			solve := func(iters int) {
				res, err := p.Align(context.Background(), core.Options{Method: core.MethodMR, MR: core.MROptions{
					Iterations: iters, Threads: 1,
					Matcher:        spec,
					Workspace:      ws,
					SkipFinalExact: true,
				}})
				if err != nil {
					t.Fatal(err)
				}
				if res.Matching == nil {
					t.Fatal("no matching")
				}
			}
			solve(4)
			if got := allocsPerIter(t, solve); got != 0 {
				t.Errorf("MR iteration allocates %.2f objects/iter, want 0", got)
			}
		})
	}
}

// TestPooledSteadyStateLowAlloc pins the pool's point: multi-thread
// iterations stop paying per-region goroutine spawns, so a warm
// pooled solve stays under one allocation per iteration even at
// Threads=4 (the remaining fraction is the occasional shared-pool
// fallback inside reductions). Measured by the same delta method as
// the Threads=1 zero-alloc tests.
func TestPooledSteadyStateLowAlloc(t *testing.T) {
	p := smallSynthetic(t, 105)
	ws := core.NewWorkspace()
	solves := map[string]func(iters int){
		"bp-batch20": func(iters int) {
			_, err := p.Align(context.Background(), core.Options{Method: core.MethodBP, BP: core.BPOptions{
				Iterations: iters, Threads: 4, Batch: 20,
				Matcher:        matching.MatcherSpec{Name: "approx"},
				Workspace:      ws,
				SkipFinalExact: true,
			}})
			if err != nil {
				t.Fatal(err)
			}
		},
		"mr": func(iters int) {
			_, err := p.Align(context.Background(), core.Options{Method: core.MethodMR, MR: core.MROptions{
				Iterations: iters, Threads: 4,
				Matcher:        matching.MatcherSpec{Name: "approx"},
				Workspace:      ws,
				SkipFinalExact: true,
			}})
			if err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, solve := range solves {
		solve(4) // warm the workspace and matcher scratch
		if got := allocsPerIter(t, solve); got >= 1 {
			t.Errorf("%s: pooled 4-thread iteration allocates %.2f objects/iter, want < 1", name, got)
		}
	}
}

// observedBits returns every damped y and z word the solver (or the
// reference) hands its observer, in iteration order.
func observedBits() (*[]uint64, func(iter int, y, z []float64)) {
	var bits []uint64
	return &bits, func(iter int, y, z []float64) {
		for _, v := range y {
			bits = append(bits, math.Float64bits(v))
		}
		for _, v := range z {
			bits = append(bits, math.Float64bits(v))
		}
	}
}

// referenceBits runs the serial step-by-step reference for iters
// iterations.
func referenceBits(p *core.Problem, iters int, gamma float64, damp core.Damping) []uint64 {
	bits, observe := observedBits()
	core.ReferenceBP(p, iters, gamma, damp, observe)
	return *bits
}

// compareBits fails the test at the first word where the solver's
// iterates leave the reference's.
func compareBits(t *testing.T, name string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: observed %d message words, reference has %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: message word %d is %x, reference has %x", name, i, got[i], want[i])
		}
	}
}

// TestFusedKernelsBitIdentical pins the fusion contract: the solver's
// fused sweeps evaluate the reference's float operations in the same
// order, so the damped message iterates are bitwise equal to the
// step-by-step Listing 2 iteration under every damping scheme, not
// merely close.
func TestFusedKernelsBitIdentical(t *testing.T) {
	p := smallSynthetic(t, 103)
	for _, damp := range []core.Damping{core.DampPower, core.DampConstant, core.DampNone} {
		want := referenceBits(p, 12, 0.99, damp)
		for _, threads := range []int{1, 3} {
			for _, batch := range []int{1, 4} {
				name := fmt.Sprintf("threads=%d/batch=%d/damp=%v", threads, batch, damp)
				bits, observe := observedBits()
				runBP(p, core.BPOptions{
					Iterations: 12, Batch: batch, Threads: threads, Damp: damp,
					Matcher:  matching.MatcherSpec{Name: "approx"},
					Observer: observe,
				})
				compareBits(t, name, want, *bits)
			}
		}
	}
}

// TestBPMatchesSerialReference compares the solver's y and z at every
// iteration, bit for bit, against the serial reference across thread
// counts, rounding batch sizes and S row orders.
func TestBPMatchesSerialReference(t *testing.T) {
	p := smallSynthetic(t, 113)
	const iters = 15
	want := referenceBits(p, iters, 0.99, core.DampPower)
	for _, threads := range []int{1, 2, 4} {
		for _, batch := range []int{1, 7, 20} {
			for _, mode := range []core.ReorderMode{core.ReorderNone, core.ReorderRCM} {
				name := fmt.Sprintf("threads=%d/batch=%d/reorder=%v", threads, batch, mode)
				bits, observe := observedBits()
				_, err := p.Align(context.Background(), core.Options{
					BP: core.BPOptions{
						Iterations: iters, Batch: batch, Threads: threads,
						Matcher:  matching.MatcherSpec{Name: "approx"},
						Observer: observe,
					},
					Reorder: core.ReorderOptions{Mode: mode},
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				compareBits(t, name, want, *bits)
			}
		}
	}
}

// TestWorkspaceReuseAcrossMethodsAndSolves checks that one workspace
// can serve BP, then MR, then BP again (with a different matcher spec)
// and still produce the same results as fresh-workspace solves.
func TestWorkspaceReuseAcrossMethodsAndSolves(t *testing.T) {
	p := smallSynthetic(t, 104)
	ws := core.NewWorkspace()
	ctx := context.Background()
	type step struct {
		o core.Options
	}
	steps := []step{
		{core.Options{Method: core.MethodBP, BP: core.BPOptions{Iterations: 6, Matcher: matching.MatcherSpec{Name: "approx"}}}},
		{core.Options{Method: core.MethodMR, MR: core.MROptions{Iterations: 6}}},
		{core.Options{Method: core.MethodBP, BP: core.BPOptions{Iterations: 6, Matcher: matching.MatcherSpec{Name: "suitor"}}}},
	}
	for i, st := range steps {
		shared := st.o
		if shared.Method == core.MethodBP {
			shared.BP.Workspace = ws
		} else {
			shared.MR.Workspace = ws
		}
		got, err := p.Align(ctx, shared)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := p.Align(ctx, st.o)
		if err != nil {
			t.Fatalf("step %d (fresh): %v", i, err)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Errorf("step %d: shared-workspace objective %v != fresh %v", i, got.Objective, want.Objective)
		}
		if err := got.Matching.Validate(p.L); err != nil {
			t.Errorf("step %d: %v", i, err)
		}
	}
}

// TestAlignUnknownMethod pins the error contract of the unified entry
// point.
func TestAlignUnknownMethod(t *testing.T) {
	p := smallSynthetic(t, 105)
	res, err := p.Align(context.Background(), core.Options{Method: core.Method(99)})
	if err == nil {
		t.Fatal("want error for unknown method")
	}
	if res == nil || res.Err == nil {
		t.Fatal("unknown method must still return an empty result carrying the error")
	}
}

// TestMethodTextRoundTrip pins Method's text encoding, which travels
// through CLI flags and job JSON.
func TestMethodTextRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		text string
		want core.Method
	}{
		{"bp", core.MethodBP}, {"BP", core.MethodBP},
		{"mr", core.MethodMR}, {"MR", core.MethodMR}, {"klau", core.MethodMR},
	} {
		var m core.Method
		if err := m.UnmarshalText([]byte(tc.text)); err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		if m != tc.want {
			t.Errorf("%q parsed as %v, want %v", tc.text, m, tc.want)
		}
	}
	var bad core.Method
	if err := bad.UnmarshalText([]byte("nope")); err == nil {
		t.Error("want error for unknown method text")
	}
}
