package core_test

// Matrix test for locality reordering: a reorder view is a second
// *storage* layout of S (rows permuted, columns canonical, within-row
// order preserved), so for a fixed thread count the solver output must
// be bitwise identical across every mode — including the serialized
// checkpoint bytes, which canonicalize the nnz-ordered state — and a
// checkpoint taken under one mode must resume bit-identically under
// another.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
	"netalignmc/internal/problemio"
)

// setCheckpoint installs a checkpoint collector on the selected
// method's options.
func setCheckpoint(o *core.Options, every int, fn func(*core.Checkpoint) error) {
	switch o.Method {
	case core.MethodMR:
		o.MR.CheckpointEvery = every
		o.MR.CheckpointFunc = fn
	default:
		o.BP.CheckpointEvery = every
		o.BP.CheckpointFunc = fn
	}
}

// runAligned runs Align, serializing every checkpoint through the
// problemio writer so the returned bytes cover the full on-disk form.
func runAligned(t *testing.T, p *core.Problem, o core.Options, every int) (*core.AlignResult, [][]byte) {
	t.Helper()
	var cks [][]byte
	if every > 0 {
		setCheckpoint(&o, every, func(c *core.Checkpoint) error {
			var buf bytes.Buffer
			if err := problemio.WriteCheckpoint(&buf, c); err != nil {
				return err
			}
			cks = append(cks, buf.Bytes())
			return nil
		})
	}
	res, err := p.Align(context.Background(), o)
	if err != nil {
		t.Fatalf("align: %v", err)
	}
	return res, cks
}

// compareRuns asserts two runs of the same options are bitwise
// indistinguishable on every output surface.
func compareRuns(t *testing.T, name string, want, got *core.AlignResult, wantCks, gotCks [][]byte) {
	t.Helper()
	if math.Float64bits(want.Objective) != math.Float64bits(got.Objective) {
		t.Fatalf("%s: objective %v not bitwise equal to the reference's %v", name, got.Objective, want.Objective)
	}
	if want.Evaluations != got.Evaluations {
		t.Fatalf("%s: evaluations %d != the reference's %d", name, got.Evaluations, want.Evaluations)
	}
	if want.BestIter != got.BestIter {
		t.Fatalf("%s: best iter %d != the reference's %d", name, got.BestIter, want.BestIter)
	}
	if len(want.Matching.MateA) != len(got.Matching.MateA) {
		t.Fatalf("%s: mate length %d != %d", name, len(got.Matching.MateA), len(want.Matching.MateA))
	}
	for i := range want.Matching.MateA {
		if want.Matching.MateA[i] != got.Matching.MateA[i] {
			t.Fatalf("%s: mateA[%d] = %d, the reference has %d", name, i, got.Matching.MateA[i], want.Matching.MateA[i])
		}
	}
	if len(want.ObjectiveTrace) != len(got.ObjectiveTrace) {
		t.Fatalf("%s: trace length %d != the reference's %d", name, len(got.ObjectiveTrace), len(want.ObjectiveTrace))
	}
	for i := range want.ObjectiveTrace {
		if math.Float64bits(want.ObjectiveTrace[i]) != math.Float64bits(got.ObjectiveTrace[i]) {
			t.Fatalf("%s: trace[%d] = %v, the reference has %v", name, i, got.ObjectiveTrace[i], want.ObjectiveTrace[i])
		}
	}
	if len(wantCks) != len(gotCks) {
		t.Fatalf("%s: %d checkpoints, the reference wrote %d", name, len(gotCks), len(wantCks))
	}
	for i := range wantCks {
		if !bytes.Equal(wantCks[i], gotCks[i]) {
			t.Fatalf("%s: checkpoint %d bytes differ from the reference's", name, i)
		}
	}
}

func reorderBase(method core.Method, threads int) core.Options {
	o := core.Options{Method: method}
	switch method {
	case core.MethodMR:
		o.MR = core.MROptions{
			Iterations: 9, Threads: threads,
			Matcher: matching.MatcherSpec{Name: "approx"},
		}
	default:
		o.BP = core.BPOptions{
			Iterations: 9, Threads: threads, Batch: 2, Trace: true,
			Matcher: matching.MatcherSpec{Name: "approx"},
		}
	}
	return o
}

func TestReorderMatrix(t *testing.T) {
	p := smallSynthetic(t, 307)
	modes := []core.ReorderMode{core.ReorderNone, core.ReorderAuto, core.ReorderDegree, core.ReorderRCM}
	for _, method := range []core.Method{core.MethodBP, core.MethodMR} {
		for _, threads := range []int{1, 2} {
			base := reorderBase(method, threads)
			ref, refCks := runAligned(t, p, base, 4)
			if err := ref.Matching.Validate(p.L); err != nil {
				t.Fatalf("%v threads=%d: %v", method, threads, err)
			}
			for _, mode := range modes[1:] {
				name := fmt.Sprintf("%v/threads=%d/reorder=%v", method, threads, mode)
				ro := base
				ro.Reorder = core.ReorderOptions{Mode: mode}
				got, gotCks := runAligned(t, p, ro, 4)
				compareRuns(t, name, ref, got, refCks, gotCks)
			}
		}
	}
}

// TestResumeAcrossReorder saves a checkpoint under one reorder mode and
// resumes under another: the continuation must be bit-identical to the
// uninterrupted canonical run, because checkpoints serialize the
// nnz-ordered state canonically.
func TestResumeAcrossReorder(t *testing.T) {
	p := smallSynthetic(t, 311)
	for _, method := range []core.Method{core.MethodBP, core.MethodMR} {
		base := reorderBase(method, 2)

		// Uninterrupted canonical-order reference, saving iteration 4.
		var saved *core.Checkpoint
		ref := base
		setCheckpoint(&ref, 4, func(c *core.Checkpoint) error {
			if c.Iter != 4 {
				return nil
			}
			var buf bytes.Buffer
			if err := problemio.WriteCheckpoint(&buf, c); err != nil {
				return err
			}
			var err error
			saved, err = problemio.ReadCheckpoint(&buf)
			return err
		})
		refRes, err := p.Align(nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		if saved == nil {
			t.Fatalf("%v: checkpoint at iteration 4 never written", method)
		}

		for _, mode := range []core.ReorderMode{core.ReorderNone, core.ReorderDegree, core.ReorderRCM} {
			resumed := base
			resumed.Reorder = core.ReorderOptions{Mode: mode}
			switch method {
			case core.MethodMR:
				resumed.MR.Resume = saved
			default:
				resumed.BP.Resume = saved
			}
			res, err := p.Align(nil, resumed)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v/resume-under=%v", method, mode)
			if math.Float64bits(refRes.Objective) != math.Float64bits(res.Objective) {
				t.Fatalf("%s: objective %v != uninterrupted %v", name, res.Objective, refRes.Objective)
			}
			for i := range refRes.Matching.MateA {
				if refRes.Matching.MateA[i] != res.Matching.MateA[i] {
					t.Fatalf("%s: mateA[%d] = %d, uninterrupted has %d",
						name, i, res.Matching.MateA[i], refRes.Matching.MateA[i])
				}
			}
		}
	}
}
