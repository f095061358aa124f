package matching

import "netalignmc/internal/bipartite"

// Exact computes a maximum-weight bipartite matching (not necessarily
// perfect or maximum-cardinality) by successive shortest augmenting
// paths with potentials (see ssp for the reduction). Edges with
// w ≤ 0 are never preferred over leaving a vertex unmatched, so the
// result uses only positive-weight edges, which is what a
// maximum-weight matching does.
//
// The threads argument is accepted for Matcher compatibility but
// ignored: exact augmenting-path matching is the inherently serial
// baseline whose lack of concurrency motivates the paper.
func Exact(g *bipartite.Graph, threads int) *Result {
	_ = threads
	return exactInto(g, &ssp{}, nil)
}

// exactInto is Exact writing into out (nil allocates a fresh Result)
// with the kernel scratch k, so a warm (k, out) pair allocates nothing.
func exactInto(g *bipartite.Graph, k *ssp, out *Result) *Result {
	if out == nil {
		out = emptyResult(g)
	} else {
		out.Reset(g)
	}
	if g.NA == 0 || g.NB == 0 || g.NumEdges() == 0 {
		return out
	}
	maxW := 0.0
	for _, w := range g.W {
		if w > maxW {
			maxW = w
		}
	}
	mateL := k.solve(g.RowPtr, g.EdgeB, g.W, g.NB, maxW)
	for a, b := range mateL {
		if b < 0 || b >= g.NB {
			continue // unmatched or matched to its dummy
		}
		e, ok := g.Find(a, b)
		if !ok || g.W[e] <= 0 {
			continue // zero-weight tie with the dummy: leave unmatched
		}
		out.MateA[a] = b
		out.MateB[b] = a
		out.Weight += g.W[e]
		out.Card++
	}
	return out
}

// ExactSubset solves a maximum-weight matching restricted to a subset
// of L's edges with caller-provided weights: pick a sub-multiset of
// edges[i] (with weight weights[i]) that forms a matching in L and
// maximizes total weight. It returns the selected positions into the
// edges slice and the total weight. This is the per-row matching of
// Klau's method (Listing 1, Step 1), where each row of S induces a
// small matching problem over the nonzero columns.
//
// The subproblem is compacted to its touched vertices, so cost depends
// only on the row size, and solved exactly — the paper always uses
// exact matching for the row problems because they are tiny and the
// parallelism is across rows.
func ExactSubset(g *bipartite.Graph, edges []int, weights []float64) (selected []int, value float64) {
	if len(edges) == 0 {
		return nil, 0
	}
	// Compact vertex ids.
	aID := make(map[int]int)
	bID := make(map[int]int)
	type subEdge struct {
		a, b, pos int
		w         float64
	}
	subEdges := make([]subEdge, 0, len(edges))
	for i, e := range edges {
		w := weights[i]
		if w <= 0 {
			continue
		}
		a, b := g.EdgeA[e], g.EdgeB[e]
		ca, ok := aID[a]
		if !ok {
			ca = len(aID)
			aID[a] = ca
		}
		cb, ok := bID[b]
		if !ok {
			cb = len(bID)
			bID[b] = cb
		}
		subEdges = append(subEdges, subEdge{ca, cb, i, w})
	}
	if len(subEdges) == 0 {
		return nil, 0
	}
	we := make([]bipartite.WeightedEdge, len(subEdges))
	for i, se := range subEdges {
		we[i] = bipartite.WeightedEdge{A: se.a, B: se.b, W: se.w}
	}
	sub, err := bipartite.New(len(aID), len(bID), we)
	if err != nil {
		return nil, 0 // cannot happen: ids are dense by construction
	}
	res := Exact(sub, 1)
	// Map matched pairs back to input positions, resolving duplicate
	// (a,b) inputs to the heaviest position (bipartite.New keeps max).
	for _, se := range subEdges {
		if res.MateA[se.a] == se.b {
			e, _ := sub.Find(se.a, se.b)
			if sub.W[e] == se.w {
				selected = append(selected, se.pos)
				value += se.w
				res.MateA[se.a] = -1 - res.MateA[se.a] // consume so dups don't double count
			}
		}
	}
	return selected, value
}
