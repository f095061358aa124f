package matching

import (
	"math/rand"
	"testing"

	"netalignmc/internal/bipartite"
)

// stressGraph builds one random bipartite graph of the stress family:
// |V_A|, |V_B| in [20, 220), up to 6·|V_A| edges, and weights drawn
// either from {0, 1, 2, 3} (many ties, some non-positive edges) or
// uniformly from [0, 1).
func stressGraph(rng *rand.Rand) *bipartite.Graph {
	na, nb := 20+rng.Intn(200), 20+rng.Intn(200)
	m := rng.Intn(6*na + 1)
	ties := rng.Intn(2) == 0
	edges := make([]bipartite.WeightedEdge, m)
	for i := range edges {
		w := rng.Float64()
		if ties {
			w = float64(rng.Intn(4))
		}
		edges[i] = bipartite.WeightedEdge{A: rng.Intn(na), B: rng.Intn(nb), W: w}
	}
	g, err := bipartite.New(na, nb, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// maximalityViolation returns an edge of positive weight whose two
// endpoints are both unmatched, or ok=false when r is maximal.
func maximalityViolation(g *bipartite.Graph, r *Result) (a, b int, ok bool) {
	for e := range g.W {
		a, b := g.EdgeA[e], g.EdgeB[e]
		if g.W[e] > 0 && r.MateA[a] < 0 && r.MateB[b] < 0 {
			return a, b, true
		}
	}
	return 0, 0, false
}

// TestApproxParallelMatchesSerialStress runs the one-sided
// locally-dominant matcher on many small random graphs at 2, 4 and 8
// workers and requires every parallel run to return the 1-worker
// matching, which must be maximal. The parallel rounds race lazy V_B
// candidate initialization against Phase 2 re-examination; a lost
// candidate update shows up as a vertex left unmatched next to a free
// positive-weight edge.
func TestApproxParallelMatchesSerialStress(t *testing.T) {
	graphs, reps := 3000, 3
	if testing.Short() {
		graphs = 400
	}
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < graphs; i++ {
		g := stressGraph(rng)
		want := Approx(g, 1)
		if a, b, bad := maximalityViolation(g, want); bad {
			t.Fatalf("graph %d: 1-thread matching is not maximal: a%d and b%d both unmatched", i, a, b)
		}
		for _, threads := range []int{2, 4, 8} {
			for rep := 0; rep < reps; rep++ {
				got := Approx(g, threads)
				if err := got.Validate(g); err != nil {
					t.Fatalf("graph %d threads=%d: %v", i, threads, err)
				}
				if a, b, bad := maximalityViolation(g, got); bad {
					t.Fatalf("graph %d threads=%d rep=%d: not maximal: a%d and b%d both unmatched (weight %g vs %g, card %d vs %d at 1 thread)",
						i, threads, rep, a, b, got.Weight, want.Weight, got.Card, want.Card)
				}
				for a := range want.MateA {
					if got.MateA[a] != want.MateA[a] {
						t.Fatalf("graph %d threads=%d rep=%d: mate of a%d is %d, 1 thread gives %d",
							i, threads, rep, a, got.MateA[a], want.MateA[a])
					}
				}
			}
		}
	}
}
