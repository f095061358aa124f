package matching

import "math"

// ssp is the successive-shortest-augmenting-path kernel behind every
// exact bipartite matching in this package: Exact (and through it the
// final rounding and the exact matcher) and SubsetMatcher.Solve (the
// per-row matchings of Klau's method). It keeps its scratch between
// calls, so a warm kernel allocates nothing.
//
// The reduction: every left vertex i gets a private dummy right vertex
// nb+i reachable at cost maxW, and a real edge of weight w costs
// maxW−w ≥ 0 for w > 0, so a left-perfect matching always exists and
// Dijkstra applies with zero initial potentials. Because every left
// vertex ends up matched (possibly to its dummy), the constant shift
// maxW cancels and minimizing cost maximizes the real matched weight.
//
// Each source does work proportional to the part of the graph its
// search reaches: dist, prevL and done are +Inf, -1 and false between
// sources, and a source resets, and updates potentials for, only the
// right vertices it touched.
type ssp struct {
	// The problem of the current call, in CSR-by-left form: the edges
	// of left vertex i are col[rowPtr[i]:rowPtr[i+1]] with weights w.
	rowPtr, col []int
	w           []float64
	nb          int
	maxW        float64

	potL, potR   []float64
	mateL, mateR []int
	degR         []int // right-vertex degree over col (real vertices only)
	dist         []float64
	prevL        []int
	done         []bool
	touched      []int // right vertices whose dist the current source set
	heap         []pairItem
}

// pairItem is a (distance, right-vertex) heap entry with lazy deletion.
type pairItem struct {
	dist float64
	key  int
}

// solve computes a maximum-weight matching of the bipartite graph with
// len(rowPtr)−1 left vertices and nb right vertices given in
// CSR-by-left form. maxW must be max(0, max w). It returns mateL:
// mateL[i] is i's partner, where -1 or a value ≥ nb (i's dummy) means
// i is unmatched. Edges with w ≤ 0 may be matched only in ties with the
// dummy; callers drop them. The returned slice is scratch, valid until
// the next call.
func (k *ssp) solve(rowPtr, col []int, w []float64, nb int, maxW float64) []int {
	na := len(rowPtr) - 1
	nr := nb + na
	k.rowPtr, k.col, k.w, k.nb, k.maxW = rowPtr, col, w, nb, maxW

	k.potL = growFloats(k.potL, na)
	k.mateL = growInts(k.mateL, na)
	k.potR = growFloats(k.potR, nr)
	k.mateR = growInts(k.mateR, nr)
	k.degR = growInts(k.degR, nb)
	if cap(k.dist) < nr {
		k.dist = make([]float64, nr)
		k.prevL = make([]int, nr)
		k.done = make([]bool, nr)
		for j := range k.dist {
			k.dist[j] = math.Inf(1)
			k.prevL[j] = -1
		}
	}
	k.dist, k.prevL, k.done = k.dist[:nr], k.prevL[:nr], k.done[:nr]
	for i := range k.potL {
		k.potL[i] = 0
		k.mateL[i] = -1
	}
	for j := range k.potR {
		k.potR[j] = 0
		k.mateR[j] = -1
	}
	for j := range k.degR {
		k.degR[j] = 0
	}
	for _, j := range col {
		k.degR[j]++
	}

	// Isolated edges: a source whose only edge has positive weight and
	// a right endpoint of degree 1 forms a component of its own. SSP
	// pops that endpoint before the dummy (its cost maxW−w ≤ maxW, and
	// on a tie it was pushed first), and no later search can reach it,
	// so it is matched directly with the potential Dijkstra would set.
	// With maxW = +Inf every cost is +Inf or NaN, nothing is pushed and
	// every vertex stays unmatched, so the shortcut is off.
	isolatedOK := maxW <= math.MaxFloat64
	for s := 0; s < na; s++ {
		if lo := rowPtr[s]; isolatedOK && rowPtr[s+1]-lo == 1 && w[lo] > 0 && k.degR[col[lo]] == 1 {
			j := col[lo]
			k.potL[s] = maxW - w[lo]
			k.mateL[s], k.mateR[j] = j, s
			continue
		}
		k.augment(s)
	}
	k.rowPtr, k.col, k.w = nil, nil, nil // do not pin the caller's arrays
	return k.mateL
}

// augment runs one Dijkstra over reduced costs from the free left
// vertex s, updates the potentials and augments along the shortest
// path to the first free right vertex popped.
func (k *ssp) augment(s int) {
	k.heap = k.heap[:0]
	k.touched = k.touched[:0]
	k.relax(s, 0)
	end := -1
	for len(k.heap) > 0 {
		it := k.heapPop()
		j := it.key
		if k.done[j] || it.dist > k.dist[j] {
			continue
		}
		k.done[j] = true
		if k.mateR[j] == -1 {
			end = j
			break
		}
		k.relax(k.mateR[j], k.dist[j])
	}
	// end == -1 only when every cost is infinite: s stays unmatched.
	if end >= 0 {
		// The potential update keeps reduced costs nonnegative and makes
		// the augmenting path tight. Each done vertex updates its own
		// potR and its mate's potL, so the visiting order is immaterial.
		delta := k.dist[end]
		k.potL[s] += delta
		for _, j := range k.touched {
			if !k.done[j] || j == end {
				continue
			}
			k.potR[j] += k.dist[j] - delta
			k.potL[k.mateR[j]] += delta - k.dist[j]
		}
		j := end
		for {
			i := k.prevL[j]
			k.mateR[j] = i
			j, k.mateL[i] = k.mateL[i], j
			if i == s {
				break
			}
		}
	}
	inf := math.Inf(1)
	for _, j := range k.touched {
		k.dist[j] = inf
		k.prevL[j] = -1
		k.done[j] = false
	}
}

// relax offers the edges of left vertex i, then its dummy, to the
// search from path length base.
func (k *ssp) relax(i int, base float64) {
	maxW, potI := k.maxW, k.potL[i]
	for e := k.rowPtr[i]; e < k.rowPtr[i+1]; e++ {
		j := k.col[e]
		if nd := base + (maxW - k.w[e]) - potI - k.potR[j]; !k.done[j] && nd < k.dist[j] {
			k.push(j, i, nd)
		}
	}
	dj := k.nb + i
	if nd := base + maxW - potI - k.potR[dj]; !k.done[dj] && nd < k.dist[dj] {
		k.push(dj, i, nd)
	}
}

// push records path length nd to right vertex j via left vertex i and
// adds j to the heap.
func (k *ssp) push(j, i int, nd float64) {
	if k.prevL[j] == -1 {
		k.touched = append(k.touched, j)
	}
	k.dist[j] = nd
	k.prevL[j] = i
	k.heap = append(k.heap, pairItem{nd, j})
	h := k.heap
	c := len(h) - 1
	for c > 0 {
		parent := (c - 1) / 2
		if h[parent].dist <= h[c].dist {
			break
		}
		h[parent], h[c] = h[c], h[parent]
		c = parent
	}
}

// heapPop removes the minimum. The sift rules order equal distances
// exactly as container/heap does, which the tie-breaking of every
// exact matching depends on.
func (k *ssp) heapPop() pairItem {
	h := k.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	k.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].dist < h[smallest].dist {
			smallest = l
		}
		if r < len(h) && h[r].dist < h[smallest].dist {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
