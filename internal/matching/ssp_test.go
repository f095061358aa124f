package matching

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netalignmc/internal/bipartite"
)

// sspPalettes are the weight sets the bit-identity checks draw from.
// Few distinct values make ties the rule rather than the exception,
// which is where two SSP implementations can disagree.
var sspPalettes = [][]float64{
	{0.5},                      // all equal: MR's first iteration, every row weight β/2
	{0, 0.5, 1},                // the {0, ½, 1} values BP and MR heuristics settle on
	{-1, -0.5, 0, 0.5, 1, 2},   // non-positive edges tie with or lose to the dummy
	{1, 2, 3, 4},               // small integers: many equal-weight alternatives
	{5e-324, 1e-300, 1e-17, 1}, // tiny next to 1: maxW−w rounds to maxW
	{1e-17, 1, 1e17, 1e300, math.MaxFloat64},
	{-math.MaxFloat64, -1e300, 1e-300, 1, 1e300}, // costs overflow to +Inf
	{0.25, 1, math.Inf(1)},                       // an infinite maxW
}

func sspWeight(pal, sel byte) float64 {
	p := sspPalettes[int(pal)%len(sspPalettes)]
	return p[int(sel)%len(p)]
}

// decodeExactCase turns fuzz bytes into a candidate graph: a header
// (na, nb, palette) then one (a, b, weight selector) triple per edge.
func decodeExactCase(data []byte) *bipartite.Graph {
	if len(data) < 3 {
		return nil
	}
	na, nb, pal := 1+int(data[0]%32), 1+int(data[1]%32), data[2]
	var edges []bipartite.WeightedEdge
	for d := data[3:]; len(d) >= 3; d = d[3:] {
		edges = append(edges, bipartite.WeightedEdge{A: int(d[0]) % na, B: int(d[1]) % nb, W: sspWeight(pal, d[2])})
	}
	g, err := bipartite.New(na, nb, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// subsetCall is one row problem: positions into the graph's edges
// (repeats allowed) and their weights.
type subsetCall struct {
	edges   []int
	weights []float64
}

// decodeSubsetCase turns fuzz bytes into a complete bipartite graph
// and a sequence of row problems over it, solved on one matcher so
// that scratch reuse between calls is exercised: a header (na, nb,
// palette), then per call a length byte k and k (index hi, index lo,
// weight selector) triples.
func decodeSubsetCase(data []byte) (*bipartite.Graph, []subsetCall) {
	if len(data) < 3 {
		return nil, nil
	}
	na, nb, pal := 1+int(data[0]%32), 1+int(data[1]%32), data[2]
	var all []bipartite.WeightedEdge
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b++ {
			all = append(all, bipartite.WeightedEdge{A: a, B: b, W: 1})
		}
	}
	g, err := bipartite.New(na, nb, all)
	if err != nil {
		panic(err)
	}
	var calls []subsetCall
	for d := data[3:]; len(d) > 0; {
		k := 1 + int(d[0]%16)
		d = d[1:]
		var c subsetCall
		for ; k > 0 && len(d) >= 3; k-- {
			c.edges = append(c.edges, (int(d[0])<<8|int(d[1]))%g.NumEdges())
			c.weights = append(c.weights, sspWeight(pal, d[2]))
			d = d[3:]
		}
		calls = append(calls, c)
	}
	return g, calls
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkExactCase compares Exact and a warm exact MatchInto against
// the frozen reference.
func checkExactCase(t testing.TB, g *bipartite.Graph, reuse MatchInto, out *Result) {
	t.Helper()
	want := refExact(g, 1)
	for _, got := range []*Result{Exact(g, 1), reuse(g, 1, out)} {
		if !sameInts(got.MateA, want.MateA) || !sameInts(got.MateB, want.MateB) ||
			got.Weight != want.Weight || got.Card != want.Card {
			t.Fatalf("exact differs from reference on %s:\n got  %v w=%v\n want %v w=%v",
				describeGraph(g), got.MateA, got.Weight, want.MateA, want.Weight)
		}
	}
}

// checkSubsetCase runs the calls on one SubsetMatcher and one frozen
// reference matcher and compares every selection and value.
func checkSubsetCase(t testing.TB, g *bipartite.Graph, calls []subsetCall, sm *SubsetMatcher, ref *refSubsetMatcher) {
	t.Helper()
	var gotSel, wantSel []int
	for i, c := range calls {
		var gotVal, wantVal float64
		gotSel, gotVal = sm.Solve(g, c.edges, c.weights, gotSel[:0])
		wantSel, wantVal = ref.Solve(g, c.edges, c.weights, wantSel[:0])
		if !sameInts(gotSel, wantSel) || gotVal != wantVal {
			t.Fatalf("call %d (edges %v weights %v): got %v %v, want %v %v",
				i, c.edges, c.weights, gotSel, gotVal, wantSel, wantVal)
		}
	}
}

func describeGraph(g *bipartite.Graph) string {
	s := fmt.Sprintf("%dx%d", g.NA, g.NB)
	for e := range g.W {
		s += fmt.Sprintf(" (%d,%d,%v)", g.EdgeA[e], g.EdgeB[e], g.W[e])
	}
	return s
}

func randomCaseBytes(rng *rand.Rand, maxLen int) []byte {
	data := make([]byte, 3+rng.Intn(maxLen))
	rng.Read(data)
	return data
}

// TestExactMatchesFrozenReference pins the kernel to the SSP solver it
// replaced on tie-heavy random graphs, through both Exact and one warm
// exact MatchInto reused across every graph.
func TestExactMatchesFrozenReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	reuse, err := MatcherSpec{}.Reusable()
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	for trial := 0; trial < 5000; trial++ {
		checkExactCase(t, decodeExactCase(randomCaseBytes(rng, 3*160)), reuse, &out)
	}
}

// TestSubsetMatchesFrozenReference does the same for the row matcher:
// 5000 graphs of 16 row problems each, 80,000 calls in all.
func TestSubsetMatchesFrozenReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	calls := 0
	for trial := 0; trial < 5000; trial++ {
		data := randomCaseBytes(rng, 16*(1+3*16))
		g, cs := decodeSubsetCase(data)
		for len(cs) < 16 { // pad to exactly 16 calls per graph
			cs = append(cs, subsetCall{edges: []int{rng.Intn(g.NumEdges())}, weights: []float64{sspWeight(data[2], byte(rng.Intn(256)))}})
		}
		cs = cs[:16]
		checkSubsetCase(t, g, cs, NewSubsetMatcher(g.NA, g.NB), newRefSubsetMatcher(g.NA, g.NB))
		calls += len(cs)
	}
	if calls != 80000 {
		t.Fatalf("ran %d row calls, want 80000", calls)
	}
}

// TestIsolatedEdgeShortcutTies covers the shortcut's edge cases
// directly: an isolated edge whose cost maxW−w rounds to maxW, an
// isolated non-positive edge, and an infinite maxW.
func TestIsolatedEdgeShortcutTies(t *testing.T) {
	reuse, _ := MatcherSpec{}.Reusable()
	for _, edges := range [][]bipartite.WeightedEdge{
		{{A: 0, B: 0, W: 1e-300}, {A: 1, B: 1, W: 1}},
		{{A: 0, B: 0, W: 0}, {A: 1, B: 1, W: 1}},
		{{A: 0, B: 0, W: -1}, {A: 1, B: 1, W: 1}, {A: 2, B: 1, W: 1}},
		{{A: 0, B: 0, W: 2}, {A: 1, B: 1, W: math.Inf(1)}},
	} {
		g := mustGraph(t, 3, 2, edges)
		checkExactCase(t, g, reuse, nil)
	}
}

func FuzzExactMatchesReference(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0})
	f.Add([]byte{4, 4, 4, 0, 0, 0, 1, 1, 3, 2, 2, 1, 2, 3, 2})
	f.Add([]byte{5, 2, 6, 0, 0, 0, 1, 0, 4, 2, 1, 2, 3, 1, 1})
	f.Add([]byte{2, 2, 7, 0, 0, 2, 1, 1, 0, 1, 0, 1})
	reuse, err := MatcherSpec{}.Reusable()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if g := decodeExactCase(data); g != nil {
			checkExactCase(t, g, reuse, nil)
		}
	})
}

func FuzzSubsetMatchesReference(f *testing.F) {
	f.Add([]byte{3, 3, 0, 3, 0, 0, 0, 0, 4, 0, 0, 8, 0, 2, 0, 0, 0, 5, 0})
	f.Add([]byte{7, 7, 1, 5, 0, 1, 1, 0, 9, 2, 0, 17, 0, 1, 30, 1, 0, 40, 2})
	f.Add([]byte{2, 5, 4, 4, 0, 0, 3, 0, 1, 0, 0, 6, 1, 0, 7, 2, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, calls := decodeSubsetCase(data); g != nil {
			checkSubsetCase(t, g, calls, NewSubsetMatcher(g.NA, g.NB), newRefSubsetMatcher(g.NA, g.NB))
		}
	})
}
