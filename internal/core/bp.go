package core

import (
	"context"
	"math"
	"sync/atomic"

	"netalignmc/internal/matching"
	"netalignmc/internal/parallel"
	"netalignmc/internal/sparse"
	"netalignmc/internal/stats"
)

// BP step names, used by the Figure 7 per-step scaling study.
const (
	BPStepBoundF   = "boundF"   // Step 1: F = bound_{0,β}(βS + S^(k)T)
	BPStepComputeD = "computeD" // Step 2: d = αw + Fe
	BPStepOthermax = "othermax" // Step 3: othermax row/col updates
	BPStepUpdateS  = "updateS"  // Step 4: S^(k) = diag(y+z−d)·S − F
	BPStepDamping  = "damping"  // Step 5: geometric damping
	BPStepMatch    = "match"    // Step 6: rounding (possibly batched)
)

// The solver evaluates step 5 inside steps 3 and 4: the othermax step
// blends the new y and z with their predecessors as it writes them,
// and the updateS step does the same for S^(k), so one sweep over each
// index space does both. The step timer therefore records nothing
// under BPStepDamping; the name remains for the fault-injection hook
// on the damped state and for the per-step traffic model.

// Damping selects how BP iterates are blended with their predecessors
// (Section III-B: "We only describe one type of damping. See [13] for
// other variations.").
type Damping int

const (
	// DampPower blends with weight γ^k at iteration k (the paper's
	// choice; the blend weight decays so the iterates converge).
	DampPower Damping = iota
	// DampConstant blends with a fixed weight γ every iteration.
	DampConstant
	// DampNone applies no damping; the messages may oscillate, which
	// is why rounding every iterate and keeping the best still works.
	DampNone
)

// String returns the damping scheme name.
func (d Damping) String() string {
	switch d {
	case DampConstant:
		return "constant"
	case DampNone:
		return "none"
	default:
		return "power"
	}
}

// BPOptions configures the belief-propagation method (Listing 2).
type BPOptions struct {
	// Iterations is n_iter; the paper's scaling runs use 400 and note
	// 500–1000 is the useful maximum.
	Iterations int
	// Gamma is the damping base; under DampPower the iterates are
	// blended with weight γ^k at iteration k. The paper's experiments
	// use γ = 0.99.
	Gamma float64
	// Damp selects the damping scheme (default DampPower, the paper's).
	Damp Damping
	// Batch is the rounding batch size r of Section IV-C: iterate
	// vectors are collected and rounded together as concurrent tasks;
	// 1 rounds immediately (BP(batch=1)). Each iteration produces two
	// vectors (y and z), so a batch of r flushes every r/2 iterations.
	Batch int
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// Matcher selects the matcher that rounds iterates: the zero value
	// is exact matching, {Name: "approx"} the paper's substitution.
	// Unlike MR, BP's iterate sequence is independent of this choice —
	// rounding only evaluates quality (Section VII). The solver builds
	// one reusable matcher per batch slot from it, which is what makes
	// steady-state rounding allocation-free.
	Matcher matching.MatcherSpec
	// Workspace supplies reusable solver buffers; nil allocates a
	// private one for the solve. Handing the same workspace to
	// successive solves on same-shaped problems removes the per-solve
	// buffer allocations too. A workspace serves one solve at a time.
	Workspace *Workspace
	// SkipFinalExact disables the final exact rounding of the best
	// heuristic (used by the scaling studies).
	SkipFinalExact bool
	// Timer, when non-nil, accumulates per-step wall time.
	Timer *stats.StepTimer
	// Trace records every rounded objective.
	Trace bool
	// WarmY and WarmZ, when non-nil, initialize the message vectors
	// instead of zeros. The steering workflow re-solves a problem
	// after editing L; transferring the previous solve's messages (see
	// TransferEdgeVector) lets the new run start near the old fixed
	// point. Lengths must equal |E_L|. Ignored when Resume is set.
	WarmY, WarmZ []float64
	// Observer, when non-nil, is called after each iteration's damping
	// with the iteration number and the damped message vectors (which
	// alias internal buffers — copy before retaining). It exists for
	// message inspection and for the golden tests that pin the
	// listing's arithmetic.
	Observer func(iter int, y, z []float64)

	// Resume, when non-nil, restores the solver state from a
	// checkpoint of a previous run on the same problem with the same
	// options; the run continues at iteration Resume.Iter+1 and is bit
	// identical to the uninterrupted run. The checkpoint is validated
	// against the problem before any state is copied.
	Resume *Checkpoint
	// CheckpointEvery, when positive with CheckpointFunc set, snapshots
	// the run every that many iterations (pending batched roundings are
	// flushed first so the snapshot's tracker is complete).
	CheckpointEvery int
	// CheckpointFunc receives each snapshot; returning an error stops
	// the run and surfaces through AlignResult.Err.
	CheckpointFunc func(*Checkpoint) error
	// GuardLimit is the numeric guard's message-magnitude explosion
	// threshold: 0 selects the default (1e100), negative disables the
	// guard entirely.
	GuardLimit float64
	// Faults, when non-nil, corrupts step outputs for robustness tests
	// (see internal/faults). Production runs leave it nil.
	Faults FaultInjector
}

func (o *BPOptions) defaults() BPOptions {
	opts := *o
	if opts.Iterations <= 0 {
		opts.Iterations = 100
	}
	if opts.Gamma <= 0 || opts.Gamma >= 1 {
		opts.Gamma = 0.99
	}
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	return opts
}

// bpAlign runs the belief-propagation message-passing method
// (Listing 2) under a context. Messages y, z live on the edges of L;
// the message matrix S^(k) lives on the nonzeros of S. Each iteration
// bounds the overlap messages into F, folds them into the edge
// likelihoods d, applies the othermax exclusion updates, rescales
// S^(k), damps all three with weight γ^k, and rounds the damped y and
// z iterates to matchings whose objectives are tracked; the best
// heuristic is exact-rounded at the end. Damping is folded into the
// sweeps that produce the damped vectors: one pass over the edges
// computes and blends y and z, and one pass over S's nonzeros computes
// and blends S^(k), so every message is written once per iteration
// (the update order of Bayati et al.'s BP). The float operations and
// their order are those of the step-by-step listing, so the iterates
// are bit-identical to it (pinned against a serial reference in the
// tests).
//
// Cancelling the context (or hitting its deadline) stops the run
// mid-iteration in bounded time and returns the best matching found so
// far with AlignResult.Stopped set to StopCancelled or StopDeadline.
// The numeric guard checks every iteration's damped messages for
// NaN/Inf and magnitude explosion; a failing iteration is rolled back
// to the last good state with tightened damping, and a recurring
// failure stops the run with StopNumerics and the best valid matching.
// The returned error (also recorded on AlignResult.Err) reports
// resilience-option failures; a cancelled or numerics-stopped run is
// not an error.
//
// All buffers come from the workspace and every kernel closure is
// created once before the loop, so steady-state iterations perform no
// heap allocations at Threads=1.
func (p *Problem) bpAlign(ctx context.Context, o BPOptions, ro ReorderOptions) (*AlignResult, error) {
	opts := o.defaults()
	threads := opts.Threads
	timer := opts.Timer
	nnz := p.S.NNZ()
	mEL := p.L.NumEdges()
	serial := parallel.Threads(threads) == 1

	tr := &Tracker{Trace: opts.Trace}
	guard := newNumericGuard(opts.GuardLimit)

	// The reordered storage view of S (nil = canonical order). Every
	// kernel below reads S through the view's arrays; edge-indexed
	// vectors and all outputs stay canonical.
	view, err := p.reorderViewFor(ro)
	if err != nil {
		res := p.emptyResult()
		res.Err = err
		return res, err
	}

	ws := opts.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensureBP(mEL, nnz)
	if err := ws.ensureRound(p, opts.Matcher, opts.Batch+1); err != nil {
		res := p.emptyResult()
		res.Err = err
		return res, err
	}
	// The run's parallel-region dispatcher: a persistent worker pool
	// (created once, parked between regions) plus the per-problem
	// nnz-balanced partitions cached in the workspace.
	e := newExec(p, ws, threads, view)
	defer e.close()

	y, z := ws.y, ws.z
	yPrev, zPrev := ws.yPrev, ws.zPrev
	sk, skPrev := ws.sk, ws.skPrev
	d, om, om2, f := ws.d, ws.om, ws.om2, ws.f
	rowScale := ws.rowScale
	zeroFloat64(y, z, yPrev, zPrev, sk, skPrev)
	gammaK := 1.0
	startIter := 1
	if opts.Resume != nil {
		if err := opts.Resume.Validate(p, "bp"); err != nil {
			res := p.emptyResult()
			res.Err = err
			return res, err
		}
		copy(yPrev, opts.Resume.Y)
		copy(zPrev, opts.Resume.Z)
		// Checkpoints carry SK in canonical nonzero order; gather it
		// into this run's storage order (identity without a view), so
		// resuming under different reorder settings is bit-identical.
		view.gather(skPrev, opts.Resume.SK)
		gammaK = opts.Resume.GammaK
		guard.tighten = opts.Resume.Tighten
		if guard.tighten == 0 {
			guard.tighten = 1
		}
		guard.failures = opts.Resume.Failures
		opts.Resume.restoreTracker(p, tr)
		startIter = opts.Resume.Iter + 1
	} else {
		if len(opts.WarmY) == mEL {
			copy(yPrev, opts.WarmY)
		}
		if len(opts.WarmZ) == mEL {
			copy(zPrev, opts.WarmZ)
		}
	}

	// Last-good snapshots for the numeric guard's rollback.
	goodY, goodZ, goodSK := ws.goodY, ws.goodZ, ws.goodSK
	copy(goodY, yPrev)
	copy(goodZ, zPrev)
	copy(goodSK, skPrev)
	goodGammaK := gammaK

	sVal := p.S.Val
	perm := p.SPerm
	sRow := p.SRow
	beta := p.Beta
	w := p.L.W
	ptr := p.S.Ptr
	alpha := p.Alpha
	// With a reorder view, the nnz-indexed arrays switch to the
	// reordered storage (perm and sRow are pre-composed so kernels
	// keep indexing canonical edge vectors), and the row loops walk
	// rows in storage order with rowOf mapping back to the canonical
	// row for the d/w accesses.
	var rowOf []int
	if view != nil {
		sVal, perm, sRow, ptr = view.s.Val, view.perm, view.sRow, view.s.Ptr
		rowOf = view.rows
	}

	// g is the current iteration's damping weight, set before the
	// sweeps run; the kernels read it by capture.
	var g float64

	// The kernel closures are hoisted out of the iteration loop: a
	// closure handed to the parallel constructs escapes (the worker
	// goroutines capture it), so creating one per iteration would
	// heap-allocate on the hot path. They capture the slice-header
	// variables, so the post-damping buffer swaps are visible to them.

	// Step 1: F = bound_{0,β}(β·S + S^(k−1)ᵀ). The transpose is
	// realized by pulling through the permutation with no intermediate
	// write.
	boundF := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			f[k] = sparse.Bound(beta*sVal[k]+skPrev[perm[k]], 0, beta)
		}
	}
	// Step 2: d = αw + F·e (row sums of F over S's pattern). Each row
	// keeps its within-row summation order under reordering, so every
	// d entry is bit-identical; only which worker computes it moves.
	computeD := func(lo, hi int) {
		for e := lo; e < hi; e++ {
			s := 0.0
			for k := ptr[e]; k < ptr[e+1]; k++ {
				s += f[k]
			}
			r := e
			if rowOf != nil {
				r = rowOf[e]
			}
			d[r] = alpha*w[r] + s
		}
	}
	// Steps 3 and 5 on the edges: y = d − othermaxcol(z⁽ᵏ⁻¹⁾) and
	// z = d − othermaxrow(y⁽ᵏ⁻¹⁾), each damped against its predecessor
	// as it is written. The guard's tighten factor (< 1 after a
	// numeric rollback) is already folded into g so a diverging message
	// sequence moves more slowly. Step 4's row factor y + z − d of the
	// undamped messages is kept for the S sweep.
	edgeSweep := func(lo, hi int) {
		for e := lo; e < hi; e++ {
			yv := d[e] - om2[e]
			zv := d[e] - om[e]
			rowScale[e] = yv + zv - d[e]
			y[e] = g*yv + (1-g)*yPrev[e]
			z[e] = g*zv + (1-g)*zPrev[e]
		}
	}
	// Steps 4 and 5 on S: S^(k) = diag(y + z − d)·S − F, damped against
	// S^(k−1) as it is written.
	sSweep := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			t := rowScale[sRow[k]]*sVal[k] - f[k]
			sk[k] = g*t + (1-g)*skPrev[k]
		}
	}
	// The othermax scans read yPrev/zPrev through capture so the
	// post-damping swaps stay visible; dispatched over L's vertex sets
	// with the degree-balanced partitions.
	omRows := func(lo, hi int) { othermaxRowsRange(om, yPrev, p.L, lo, hi) }
	omCols := func(lo, hi int) { othermaxColsRange(om2, zPrev, p.L, lo, hi) }
	step1 := func() { e.forNNZ(ctx, nnz, boundF) }
	step2 := func() { e.forSRows(ctx, mEL, computeD) }
	step3 := func() {
		e.forLCols(p.L.NB, omCols)
		e.forLRows(p.L.NA, omRows)
		e.forEdges(mEL, edgeSweep)
	}
	step4 := func() { e.forNNZ(ctx, nnz, sSweep) }

	// Pending rounding slots (the batch) and their parallel tasks.
	slots := ws.slots
	pendLen := 0
	var numericEvents atomic.Int64

	slotTasks := make([]func(int), opts.Batch+1)
	for i := range slotTasks {
		s := slots[i]
		slotTasks[i] = func(taskThreads int) {
			s.ok = false
			// A corrupted (non-finite) heuristic copy is a numeric
			// fault: skip the rounding — the matcher and objective
			// would only launder the NaN — and let the guard account
			// for it after the flush.
			if !finiteVector(s.heur) {
				numericEvents.Add(1)
				return
			}
			p.roundSlotRun(s, taskThreads)
		}
	}
	flushBody := func() {
		if serial {
			for i := 0; i < pendLen; i++ {
				s := slots[i]
				if !finiteVector(s.heur) {
					numericEvents.Add(1)
					continue
				}
				p.roundSlotRun(s, 1)
				tr.Offer(s.iter, s.obj, &s.res, s.heur)
			}
			pendLen = 0
			return
		}
		// Each task is one matching problem; with T threads and r
		// tasks each matching gets max(1, T/r) threads, the paper's
		// nested-parallelism scheme. Offer the results in batch order
		// after the barrier: task scheduling must not decide objective
		// ties, or the selected matching (and a checkpointed resume)
		// would vary run to run.
		e.runTasksCtx(ctx, slotTasks[:pendLen])
		for i := 0; i < pendLen; i++ {
			s := slots[i]
			if s.ok {
				tr.Offer(s.iter, s.obj, &s.res, s.heur)
			}
		}
		pendLen = 0
	}
	flush := func() {
		if pendLen > 0 {
			timer.Time(BPStepMatch, flushBody)
		}
	}
	// corrupt is the fault-injection hook: a no-op unless a test armed
	// a fault injector.
	corrupt := func(step string, iter int, v []float64) {
		if opts.Faults != nil {
			opts.Faults.CorruptVector(step, iter, v)
		}
	}

	stopped := StopMaxIter
	var runErr error
	lastIter := startIter - 1

	iter := startIter
loop:
	for iter <= opts.Iterations {
		if err := ctx.Err(); err != nil {
			stopped = stopReasonForCtx(err)
			break
		}
		timer.Time(BPStepBoundF, step1)
		corrupt(BPStepBoundF, iter, f)

		timer.Time(BPStepComputeD, step2)
		corrupt(BPStepComputeD, iter, d)

		// The damping weight for this iteration is fixed before the
		// sweeps so they can blend as they write.
		gammaK *= opts.Gamma
		switch opts.Damp {
		case DampConstant:
			g = opts.Gamma
		case DampNone:
			g = 1
		default:
			g = gammaK
		}
		g *= guard.tighten

		timer.Time(BPStepOthermax, step3)
		corrupt(BPStepOthermax, iter, y)
		timer.Time(BPStepUpdateS, step4)
		corrupt(BPStepUpdateS, iter, sk)
		y, yPrev = yPrev, y
		z, zPrev = zPrev, z
		sk, skPrev = skPrev, sk
		// After the swaps, *Prev hold iteration k's damped state.
		corrupt(BPStepDamping, iter, yPrev)

		// A cancelled step leaves partially written vectors; bail out
		// before the guard or the tracker can look at them.
		if err := ctx.Err(); err != nil {
			stopped = stopReasonForCtx(err)
			break
		}

		// Numeric guard: one scan over the damped state catches NaN/Inf
		// or explosion introduced by any step (a bad F entry propagates
		// through d, y/z and S^(k)). On failure, roll back to the last
		// good iterate and retry with tightened damping; stop with
		// StopNumerics when the failure recurs.
		if !guard.ok(threads, yPrev, zPrev, skPrev) {
			if guard.trip() {
				copy(yPrev, goodY)
				copy(zPrev, goodZ)
				copy(skPrev, goodSK)
				gammaK = goodGammaK
				continue
			}
			copy(yPrev, goodY)
			copy(zPrev, goodZ)
			copy(skPrev, goodSK)
			stopped = StopNumerics
			break
		}
		guard.clean()
		copy(goodY, yPrev)
		copy(goodZ, zPrev)
		copy(goodSK, skPrev)
		goodGammaK = gammaK

		if opts.Observer != nil {
			opts.Observer(iter, yPrev, zPrev)
		}

		// Step 6: copy the damped y and z iterates into the next two
		// batch slots; flush when the batch is full.
		sy := slots[pendLen]
		sy.iter = iter
		sy.heur = growFloat64(sy.heur, mEL)
		copy(sy.heur, yPrev)
		pendLen++
		sz := slots[pendLen]
		sz.iter = iter
		sz.heur = growFloat64(sz.heur, mEL)
		copy(sz.heur, zPrev)
		pendLen++
		corrupt(BPStepMatch, iter, sy.heur)
		corrupt(BPStepMatch, iter, sz.heur)
		if pendLen >= opts.Batch {
			flush()
			// Corrupted heuristics skipped during the flush count as
			// guard failures so a recurring match-step fault escalates
			// to StopNumerics instead of silently dropping roundings.
			for n := numericEvents.Swap(0); n > 0; n-- {
				if !guard.trip() {
					stopped = StopNumerics
					lastIter = iter
					break loop
				}
			}
		}
		lastIter = iter

		if opts.CheckpointEvery > 0 && opts.CheckpointFunc != nil && iter%opts.CheckpointEvery == 0 {
			flush() // the snapshot's tracker must cover every iterate so far
			ck := &Checkpoint{
				Method:   "bp",
				Iter:     iter,
				GammaK:   gammaK,
				Tighten:  guard.tighten,
				Failures: guard.failures,
				Y:        append([]float64(nil), yPrev...),
				Z:        append([]float64(nil), zPrev...),
				// SK is serialized in canonical nonzero order regardless
				// of the run's storage layout, so checkpoint bytes (and
				// resumes) are identical across reorder settings.
				SK: view.canonicalCopy(skPrev),
			}
			ck.fingerprint(p)
			ck.captureTracker(tr)
			if err := opts.CheckpointFunc(ck); err != nil {
				runErr = err
				break
			}
		}
		iter++
	}

	cancelled := stopped == StopCancelled || stopped == StopDeadline
	if !cancelled {
		flush()
	}

	var out *AlignResult
	if cancelled && !tr.HasBest() {
		// Cancelled before any rounding completed: return an empty
		// matching rather than paying for an exact solve now.
		out = p.emptyResult()
	} else {
		var err error
		out, err = p.finishResult(tr, threads, opts.SkipFinalExact || cancelled)
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	out.Iterations = lastIter
	out.Stopped = stopped
	out.NumericFailures = guard.failures
	out.Err = runErr
	if opts.Trace {
		out.ObjectiveTrace = append([]float64(nil), tr.Objective...)
	}
	return out, runErr
}

// bpSanityCheck verifies finite messages; used in tests via export.
func bpSanityCheck(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
