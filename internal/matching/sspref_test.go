package matching

// A frozen copy of the two successive-shortest-path solvers as they
// stood before they were folded into the shared ssp kernel: Exact on
// container/heap, and SubsetMatcher.Solve with its own heap. The
// kernel must reproduce them bit for bit — mates, selection order and
// totals — including every tie-break, so the copies stay verbatim
// apart from their names. Do not "fix" them.

import (
	"container/heap"
	"math"

	"netalignmc/internal/bipartite"
)

// refExact is the frozen Exact.
func refExact(g *bipartite.Graph, threads int) *Result {
	_ = threads
	r := emptyResult(g)
	na, nb := g.NA, g.NB
	if na == 0 || nb == 0 || g.NumEdges() == 0 {
		return r
	}

	maxW := 0.0
	for _, w := range g.W {
		if w > maxW {
			maxW = w
		}
	}
	// Right-side vertex space: real vertices [0, nb), dummies
	// [nb, nb+na) with dummy of a at nb+a.
	nr := nb + na
	cost := func(e int) float64 { return maxW - g.W[e] } // real edge cost
	dummyCost := maxW

	potL := make([]float64, na)
	potR := make([]float64, nr)
	mateL := make([]int, na) // right vertex matched to a, -1 if none yet
	mateR := make([]int, nr) // left vertex matched to right, -1 if none
	for i := range mateL {
		mateL[i] = -1
	}
	for j := range mateR {
		mateR[j] = -1
	}

	dist := make([]float64, nr)
	prevL := make([]int, nr)
	done := make([]bool, nr)

	pq := &refHeap{}
	for s := 0; s < na; s++ {
		// Dijkstra over right vertices from the free left vertex s.
		for j := range dist {
			dist[j] = math.Inf(1)
			prevL[j] = -1
			done[j] = false
		}
		pq.items = pq.items[:0]
		relax := func(i int, base float64) {
			lo, hi := g.RowRange(i)
			for e := lo; e < hi; e++ {
				j := g.EdgeB[e]
				if done[j] {
					continue
				}
				nd := base + cost(e) - potL[i] - potR[j]
				if nd < dist[j] {
					dist[j] = nd
					prevL[j] = i
					heap.Push(pq, refItem{nd, j})
				}
			}
			dj := nb + i
			if !done[dj] {
				nd := base + dummyCost - potL[i] - potR[dj]
				if nd < dist[dj] {
					dist[dj] = nd
					prevL[dj] = i
					heap.Push(pq, refItem{nd, dj})
				}
			}
		}
		relax(s, 0)
		end := -1
		for pq.Len() > 0 {
			it := heap.Pop(pq).(refItem)
			j := it.key
			if done[j] || it.dist > dist[j] {
				continue
			}
			done[j] = true
			if mateR[j] == -1 {
				end = j
				break
			}
			relax(mateR[j], dist[j])
		}
		if end == -1 {
			// Unreachable: the dummy partner guarantees a free right
			// vertex is always reachable.
			continue
		}
		// Potential update keeps reduced costs nonnegative and makes
		// the augmenting path tight.
		delta := dist[end]
		potL[s] += delta
		for j := 0; j < nr; j++ {
			if !done[j] || j == end {
				continue
			}
			potR[j] += dist[j] - delta
			potL[mateR[j]] += delta - dist[j]
		}
		// Augment along prevL back to s.
		j := end
		for {
			i := prevL[j]
			mateR[j] = i
			j, mateL[i] = mateL[i], j
			if i == s {
				break
			}
		}
	}

	for a := 0; a < na; a++ {
		b := mateL[a]
		if b < 0 || b >= nb {
			continue // unmatched or matched to its dummy
		}
		e, ok := g.Find(a, b)
		if !ok || g.W[e] <= 0 {
			continue // zero-weight tie with the dummy: leave unmatched
		}
		r.MateA[a] = b
		r.MateB[b] = a
		r.Weight += g.W[e]
		r.Card++
	}
	return r
}

// refItem is a (distance, right-vertex) heap entry with lazy deletion.
type refItem struct {
	dist float64
	key  int
}

type refHeap struct{ items []refItem }

func (h *refHeap) Len() int           { return len(h.items) }
func (h *refHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *refHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refHeap) Push(x interface{}) { h.items = append(h.items, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// refSubsetMatcher is the frozen SubsetMatcher (less an unused
// diagnostics field).
type refSubsetMatcher struct {
	epoch          int64
	aStamp, bStamp []int64
	aID, bID       []int

	// Compact subproblem in CSR-by-A form.
	subNA, subNB int
	rowPtr       []int
	colB         []int
	wgt          []float64
	origPos      []int // input position of each compact edge

	// Successive-shortest-path scratch (sized to subNB + subNA right
	// vertices: real vertices then one dummy per left vertex).
	potL, potR   []float64
	mateL        []int
	mateR        []int
	dist         []float64
	prevL        []int
	done         []bool
	heap         []refItem
	countScratch []int
}

func newRefSubsetMatcher(na, nb int) *refSubsetMatcher {
	return &refSubsetMatcher{
		aStamp: make([]int64, na),
		bStamp: make([]int64, nb),
		aID:    make([]int, na),
		bID:    make([]int, nb),
	}
}

func refGrowBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func (m *refSubsetMatcher) Solve(g *bipartite.Graph, edges []int, weights []float64, selected []int) ([]int, float64) {
	if len(edges) == 0 {
		return selected, 0
	}
	m.epoch++

	// Compact the touched vertices and count positive edges.
	nEdges := 0
	maxW := 0.0
	m.subNA, m.subNB = 0, 0
	for i, e := range edges {
		w := weights[i]
		if w <= 0 {
			continue
		}
		nEdges++
		if w > maxW {
			maxW = w
		}
		a, b := g.EdgeA[e], g.EdgeB[e]
		if m.aStamp[a] != m.epoch {
			m.aStamp[a] = m.epoch
			m.aID[a] = m.subNA
			m.subNA++
		}
		if m.bStamp[b] != m.epoch {
			m.bStamp[b] = m.epoch
			m.bID[b] = m.subNB
			m.subNB++
		}
	}
	if nEdges == 0 {
		return selected, 0
	}

	// Build the compact CSR (counting sort by compact A id).
	na, nb := m.subNA, m.subNB
	m.rowPtr = growInts(m.rowPtr, na+1)
	m.countScratch = growInts(m.countScratch, na)
	for i := range m.countScratch {
		m.countScratch[i] = 0
	}
	for i, e := range edges {
		if weights[i] <= 0 {
			continue
		}
		m.countScratch[m.aID[g.EdgeA[e]]]++
	}
	m.rowPtr[0] = 0
	for a := 0; a < na; a++ {
		m.rowPtr[a+1] = m.rowPtr[a] + m.countScratch[a]
		m.countScratch[a] = m.rowPtr[a]
	}
	m.colB = growInts(m.colB, nEdges)
	m.wgt = growFloats(m.wgt, nEdges)
	m.origPos = growInts(m.origPos, nEdges)
	for i, e := range edges {
		w := weights[i]
		if w <= 0 {
			continue
		}
		ca := m.aID[g.EdgeA[e]]
		slot := m.countScratch[ca]
		m.countScratch[ca]++
		m.colB[slot] = m.bID[g.EdgeB[e]]
		m.wgt[slot] = w
		m.origPos[slot] = i
	}

	// Successive shortest paths with potentials; costs are maxW−w ≥ 0,
	// each left vertex has a private dummy right vertex of cost maxW.
	nr := nb + na
	m.potL = growFloats(m.potL, na)
	m.potR = growFloats(m.potR, nr)
	m.mateL = growInts(m.mateL, na)
	m.mateR = growInts(m.mateR, nr)
	m.dist = growFloats(m.dist, nr)
	m.prevL = growInts(m.prevL, nr)
	m.done = refGrowBools(m.done, nr)
	for i := 0; i < na; i++ {
		m.potL[i] = 0
		m.mateL[i] = -1
	}
	for j := 0; j < nr; j++ {
		m.potR[j] = 0
		m.mateR[j] = -1
	}

	for s := 0; s < na; s++ {
		for j := 0; j < nr; j++ {
			m.dist[j] = math.Inf(1)
			m.prevL[j] = -1
			m.done[j] = false
		}
		m.heap = m.heap[:0]
		m.relax(s, 0, maxW, nb)
		end := -1
		for len(m.heap) > 0 {
			it := m.heapPop()
			j := it.key
			if m.done[j] || it.dist > m.dist[j] {
				continue
			}
			m.done[j] = true
			if m.mateR[j] == -1 {
				end = j
				break
			}
			m.relax(m.mateR[j], m.dist[j], maxW, nb)
		}
		if end == -1 {
			continue
		}
		delta := m.dist[end]
		m.potL[s] += delta
		for j := 0; j < nr; j++ {
			if !m.done[j] || j == end {
				continue
			}
			m.potR[j] += m.dist[j] - delta
			m.potL[m.mateR[j]] += delta - m.dist[j]
		}
		j := end
		for {
			i := m.prevL[j]
			m.mateR[j] = i
			j, m.mateL[i] = m.mateL[i], j
			if i == s {
				break
			}
		}
	}

	// Extract: for each matched compact pair, pick the heaviest input
	// position with that pair (first occurrence after CSR fill order).
	total := 0.0
	for a := 0; a < na; a++ {
		b := m.mateL[a]
		if b < 0 || b >= nb {
			continue
		}
		bestK := -1
		for k := m.rowPtr[a]; k < m.rowPtr[a+1]; k++ {
			if m.colB[k] == b && (bestK < 0 || m.wgt[k] > m.wgt[bestK]) {
				bestK = k
			}
		}
		if bestK >= 0 && m.wgt[bestK] > 0 {
			selected = append(selected, m.origPos[bestK])
			total += m.wgt[bestK]
		}
	}
	return selected, total
}

// relax pushes the edges of compact left vertex i (plus its dummy)
// into the heap from path length base.
func (m *refSubsetMatcher) relax(i int, base, maxW float64, nb int) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		j := m.colB[k]
		if m.done[j] {
			continue
		}
		nd := base + (maxW - m.wgt[k]) - m.potL[i] - m.potR[j]
		if nd < m.dist[j] {
			m.dist[j] = nd
			m.prevL[j] = i
			m.heapPush(refItem{nd, j})
		}
	}
	dj := nb + i
	if !m.done[dj] {
		nd := base + maxW - m.potL[i] - m.potR[dj]
		if nd < m.dist[dj] {
			m.dist[dj] = nd
			m.prevL[dj] = i
			m.heapPush(refItem{nd, dj})
		}
	}
}

func (m *refSubsetMatcher) heapPush(it refItem) {
	m.heap = append(m.heap, it)
	i := len(m.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if m.heap[parent].dist <= m.heap[i].dist {
			break
		}
		m.heap[parent], m.heap[i] = m.heap[i], m.heap[parent]
		i = parent
	}
}

func (m *refSubsetMatcher) heapPop() refItem {
	top := m.heap[0]
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap = m.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(m.heap) && m.heap[l].dist < m.heap[smallest].dist {
			smallest = l
		}
		if r < len(m.heap) && m.heap[r].dist < m.heap[smallest].dist {
			smallest = r
		}
		if smallest == i {
			return top
		}
		m.heap[i], m.heap[smallest] = m.heap[smallest], m.heap[i]
		i = smallest
	}
}
