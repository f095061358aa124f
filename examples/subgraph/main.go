// Maximum common edge subgraph example: Section II notes that network
// alignment generalizes the maximum common edge subgraph problem by
// taking L to be the complete bipartite graph with α=0, β=1. This
// example aligns a 6-cycle with a 6-vertex graph containing a 5-cycle
// plus extra edges, recovering the largest common set of edges.
package main

import (
	"context"
	"fmt"
	"log"

	netalignmc "netalignmc"
)

func main() {
	// A: a 6-cycle.
	a := netalignmc.GraphFromEdges(6, []netalignmc.GraphEdge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0},
	})
	// B: a 5-cycle with a pendant vertex and a chord.
	b := netalignmc.GraphFromEdges(6, []netalignmc.GraphEdge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
		{U: 4, V: 5}, {U: 1, V: 3},
	})

	// L = complete bipartite graph, unit weights; α=0, β=1 turns the
	// alignment objective into pure edge overlap.
	var candidates []netalignmc.CandidateEdge
	for va := 0; va < 6; va++ {
		for vb := 0; vb < 6; vb++ {
			candidates = append(candidates, netalignmc.CandidateEdge{A: va, B: vb, W: 1})
		}
	}
	l, err := netalignmc.NewCandidateGraph(6, 6, candidates)
	if err != nil {
		log.Fatal(err)
	}
	p, err := netalignmc.NewProblem(a, b, l, 0, 1)
	if err != nil {
		log.Fatal(err)
	}

	best, err := p.Align(context.Background(), netalignmc.Options{
		Method: netalignmc.MethodBP,
		BP:     netalignmc.BPOptions{Iterations: 200, Gamma: 0.95},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("common edges found: %.0f\n", best.Overlap)
	fmt.Println("vertex map:")
	for va, vb := range best.Matching.MateA {
		if vb >= 0 {
			fmt.Printf("  A%d -> B%d\n", va, vb)
		}
	}
	// The 6-cycle shares at most 5 edges with B (its 5-cycle plus the
	// pendant edge can absorb the whole cycle minus one edge).
	fmt.Println("\n(A 6-cycle and this B share up to 5 edges; BP is a heuristic,")
	fmt.Println(" so slightly fewer is possible on unlucky damping schedules.)")
}
