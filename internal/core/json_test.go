package core

import (
	"encoding/json"
	"testing"
)

func TestStopReasonTextRoundTrip(t *testing.T) {
	for _, r := range []StopReason{StopMaxIter, StopConverged, StopCancelled, StopDeadline, StopNumerics} {
		text, err := r.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back StopReason
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("unmarshal %q: %v", text, err)
		}
		if back != r {
			t.Fatalf("round trip %v -> %q -> %v", r, text, back)
		}
	}
	var bad StopReason
	if err := bad.UnmarshalText([]byte("exploded")); err == nil {
		t.Fatal("unknown stop reason accepted")
	}
}

func TestAlignResultJSON(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	res := runBP(p, BPOptions{Iterations: 5, Threads: 1})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	view := res.JSON()
	if view.Objective != res.Objective || view.Matched != res.Matching.Card {
		t.Fatalf("view %+v does not reflect result", view)
	}
	if len(view.MateA) != p.L.NA {
		t.Fatalf("mateA length %d, want %d", len(view.MateA), p.L.NA)
	}
	// The view must not alias the result's mate array.
	view.MateA[0] = -7
	if res.Matching.MateA[0] == -7 {
		t.Fatal("JSON view aliases the matching")
	}

	data, err := json.Marshal(res.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var back ResultJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Objective != res.Objective {
		t.Fatalf("objective %v did not round-trip bit-identically (%v)", res.Objective, back.Objective)
	}
	if back.Stopped != res.Stopped {
		t.Fatalf("stopped %v -> %v", res.Stopped, back.Stopped)
	}
}
