package core

import (
	"testing"
)

func TestProgressReporterBP(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	var events []ProgressEvent
	rep := NewProgressReporter(p, 1, func(ev ProgressEvent) { events = append(events, ev) })
	res := runBP(p, BPOptions{Iterations: 6, Threads: 1, Observer: rep.BPObserver()})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	for i, ev := range events {
		if ev.Method != "bp" || ev.Iter != i+1 || ev.HasUpper {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
		if ev.Best < ev.Objective {
			t.Fatalf("best %g below objective %g", ev.Best, ev.Objective)
		}
	}
	// The observer-side rounding must not perturb the solve.
	plain := runBP(p, BPOptions{Iterations: 6, Threads: 1})
	if plain.Objective != res.Objective {
		t.Fatalf("observer changed the objective: %v vs %v", res.Objective, plain.Objective)
	}
}

func TestProgressReporterMREvery(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	var events []ProgressEvent
	rep := NewProgressReporter(p, 2, func(ev ProgressEvent) { events = append(events, ev) })
	res := runMR(p, MROptions{Iterations: 7, Threads: 1, Observer: rep.MRObserver()})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Iterations 2, 4, 6 report (every=2).
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for _, ev := range events {
		if ev.Method != "mr" || !ev.HasUpper || ev.Iter%2 != 0 {
			t.Fatalf("event malformed: %+v", ev)
		}
		if ev.Upper < ev.Objective-1e-9 {
			t.Fatalf("upper bound %g below objective %g", ev.Upper, ev.Objective)
		}
	}
}
