package main

import (
	"math/rand"
)

// The serve-mix traffic: nproc clients in a closed loop, each sending
// its next request as soon as its previous one is done, until planLen
// requests are sent or --seconds have passed.
// The requests follow a seeded sequence over a fixed pool of small
// inline problems (the paper's Figure 2 shape, n=400). A problem's
// first request is a miss that needs a solve. A share of the misses
// are followed at once by a duplicate, which the other client sends
// while the miss is still running (coalesced onto its run). Every
// other request repeats a problem already sent: a cache hit, or
// coalesced when it catches the problem's run in flight.
//
// Every proportion below is an assumption, not measured traffic: no
// recorded request mix exists to derive them from. They were chosen so
// that hits are the large majority, with misses, duplicates, both
// tenants and both classes all present. Keep them fixed, so results
// stay comparable, until a recorded mix is committed with the
// benchmark; then derive them from it.
//
// The loop is closed because, on a shared 2-vCPU guest, an open loop
// below the knee leaves the CPUs idle most of the time and its
// latencies swung by a third between runs with the host's load, while
// a closed loop keeps them busy and its latencies follow the service
// time.
const (
	mixN     = 400 // vertices per problem (assumed)
	poolSize = 80  // distinct problems (assumed)
	// newEvery is the mean number of requests per new problem
	// (assumed).
	newEvery = 40
	// dupPerNew is the share of new problems followed by a duplicate
	// (assumed).
	dupPerNew = 0.25
	// interactiveFrac of requests are interactive; the rest batch
	// (assumed).
	interactiveFrac = 0.3
	// planLen is how many requests a run sends, unless --seconds runs
	// out first. A fixed count keeps what the nodes hold in memory, and
	// so the run's peak RSS, the same from run to run.
	planLen = 2000
)

type reqKind int

const (
	kindUnique reqKind = iota
	kindRepeat
	kindDuplicate
)

func (k reqKind) String() string {
	return [...]string{"unique", "repeat", "duplicate"}[k]
}

// mixSpec is one problem of the pool.
type mixSpec struct {
	Method     string
	DBar       float64
	GenSeed    int64
	Iterations int
}

// plannedReq is one request of the sequence: a pool problem, why it
// is sent, and the tenant and class it is sent as.
type plannedReq struct {
	Spec   int
	Kind   reqKind
	Tenant string
	Class  string
}

// poolSpec is problem i of the pool: 40% MR, 60% BP, over three
// candidate densities, all 40 iterations (assumed, like the mix).
func poolSpec(i int) mixSpec {
	s := mixSpec{Method: "bp", DBar: []float64{4, 6, 8}[i%3], GenSeed: int64(i) + 1, Iterations: 40}
	if i%5 == 1 || i%5 == 3 {
		s.Method = "mr"
	}
	return s
}

func pool() []mixSpec {
	specs := make([]mixSpec, poolSize)
	for i := range specs {
		specs[i] = poolSpec(i)
	}
	return specs
}

// makePlan builds the request sequence for seed: the order the pool's
// problems first arrive in, which requests repeat which problem, and
// each request's tenant and class.
func makePlan(seed int64) []plannedReq {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(poolSize)
	introduced := 0
	reqs := make([]plannedReq, 0, planLen)
	for len(reqs) < planLen {
		if introduced == 0 || introduced < poolSize && rng.Intn(newEvery) == 0 {
			p := order[introduced]
			introduced++
			reqs = append(reqs, plannedReq{Spec: p, Kind: kindUnique})
			if rng.Float64() < dupPerNew {
				reqs = append(reqs, plannedReq{Spec: p, Kind: kindDuplicate})
			}
			continue
		}
		reqs = append(reqs, plannedReq{Spec: order[rng.Intn(introduced)], Kind: kindRepeat})
	}
	for i := range reqs {
		reqs[i].Tenant = []string{"team-a", "team-b"}[rng.Intn(2)]
		reqs[i].Class = "batch"
		if rng.Float64() < interactiveFrac {
			reqs[i].Class = "interactive"
		}
	}
	return reqs
}
