package matching

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netalignmc/internal/bipartite"
)

// reusableSpecs is every name in MatcherNames plus the parameter
// variants that change which code a reusable matcher runs.
func reusableSpecs(t testing.TB) []MatcherSpec {
	t.Helper()
	var specs []MatcherSpec
	for _, name := range MatcherNames() {
		specs = append(specs, MatcherSpec{Name: name})
	}
	for _, text := range []string{
		"locally-dominant(onesided=true)",
		"locally-dominant(sorted=true)",
		"locally-dominant(chunk=3)",
		"locally-dominant(onesided=true,sorted=true,chunk=2)",
		"approx(sorted=true)",
		"approx(chunk=1)",
		"auction(eps=0.01)",
	} {
		s, err := ParseMatcherSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// auctionBounded reports whether g's weights suit the auction: its ε
// price increments vanish next to huge weights, and its
// price wars over tied weights last about max|w|/ε bids (tens of
// milliseconds per graph at the default ε = 1e-6).
func auctionBounded(g *bipartite.Graph) bool {
	for _, w := range g.W {
		if math.Abs(w) > 4 {
			return false
		}
	}
	return true
}

// reusablePair is one spec's warm MatchInto and warm output next to
// its plain Matcher.
type reusablePair struct {
	spec  MatcherSpec
	reuse MatchInto
	out   Result
	plain Matcher
}

func newReusablePair(t testing.TB, spec MatcherSpec) *reusablePair {
	t.Helper()
	reuse, err := spec.Reusable()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := spec.Matcher()
	if err != nil {
		t.Fatal(err)
	}
	return &reusablePair{spec: spec, reuse: reuse, plain: plain}
}

// check matches g both ways and requires the same mates and totals.
func (rp *reusablePair) check(t testing.TB, g *bipartite.Graph, threads int) {
	t.Helper()
	if rp.spec.Name == "auction" && !auctionBounded(g) {
		return
	}
	want := rp.plain(g, threads)
	got := rp.reuse(g, threads, &rp.out)
	if !sameInts(got.MateA, want.MateA) || !sameInts(got.MateB, want.MateB) ||
		got.Weight != want.Weight || got.Card != want.Card {
		t.Fatalf("%s at %d threads: reusable differs from Matcher on %s:\n got  %v w=%v card=%d\n want %v w=%v card=%d",
			rp.spec, threads, describeGraph(g), got.MateA, got.Weight, got.Card, want.MateA, want.Weight, want.Card)
	}
}

// TestReusableMatchesMatcher pins every spec's reusable matcher to its
// plain Matcher. One warm MatchInto per spec and thread count is
// reused across random tie-heavy graphs whose sizes grow and shrink,
// so scratch left over from a larger or denser graph must never leak
// into the next result. The solvers round through the reusable form;
// this equality is what lets them do so without changing a result.
func TestReusableMatchesMatcher(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 300
	}
	for _, spec := range reusableSpecs(t) {
		n := trials
		if spec.Name == "auction" && spec.Eps == 0 {
			n /= 20
		}
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/threads=%d", spec, threads), func(t *testing.T) {
				rp := newReusablePair(t, spec)
				rng := rand.New(rand.NewSource(53))
				for trial := 0; trial < n; trial++ {
					rp.check(t, decodeExactCase(randomCaseBytes(rng, 3*160)), threads)
				}
			})
		}
	}
}

// decodeGraphSequence splits fuzz bytes into up to four graphs, each
// decoded by decodeExactCase, so one input drives a warm matcher
// through graphs of different sizes.
func decodeGraphSequence(data []byte) []*bipartite.Graph {
	if len(data) < 1 {
		return nil
	}
	parts := 1 + int(data[0]%4)
	data = data[1:]
	var gs []*bipartite.Graph
	for i := 0; i < parts; i++ {
		n := len(data) / (parts - i)
		if g := decodeExactCase(data[:n]); g != nil {
			gs = append(gs, g)
		}
		data = data[n:]
	}
	return gs
}

func FuzzReusableMatchesMatcher(f *testing.F) {
	f.Add([]byte{1, 3, 3, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 9, 2, 3, 0, 0, 0, 1, 1, 0})
	f.Add([]byte{3, 20, 17, 2, 0, 0, 0, 5, 6, 1, 9, 9, 2, 2, 2, 1, 3, 3, 0, 1, 0, 2, 1, 1, 3, 4, 4, 0})
	f.Add([]byte{2, 4, 4, 0, 0, 1, 0, 1, 2, 1, 3, 0, 2, 0, 1, 31, 31, 3, 0, 0, 0, 30, 30, 1})
	// The default-ε auction is left to the unit test: its price wars
	// would slow every fuzz input a hundredfold.
	var specs []MatcherSpec
	for _, spec := range reusableSpecs(f) {
		if spec.Name != "auction" || spec.Eps != 0 {
			specs = append(specs, spec)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gs := decodeGraphSequence(data)
		for _, spec := range specs {
			for _, threads := range []int{1, 2} {
				rp := newReusablePair(t, spec)
				for _, g := range gs {
					rp.check(t, g, threads)
				}
			}
		}
	})
}
