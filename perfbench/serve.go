package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"netalignmc/internal/cluster"
	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/problemio"
	"netalignmc/internal/server"
)

// clusterNodes is the number of netalignd nodes behind the router.
const clusterNodes = 2

// errNotReady reports a cluster that did not become ready in time.
var errNotReady = errors.New("cluster did not become ready")

// servingCluster is an in-process cluster: a cluster.Router in front
// of netalignd nodes (server.Manager behind server.Server), each over
// a real loopback HTTP server, with the daemon's production defaults
// except one worker and one thread per node.
type servingCluster struct {
	dir    string
	nodes  []*servingNode
	router *cluster.Router
	rts    *httptest.Server
}

type servingNode struct {
	url string
	mgr *server.Manager
	ts  *httptest.Server
	pf  *cluster.PeerFiller
}

// control is the client for readiness, listing, results and metrics;
// it keeps no connections open, so during the load window the
// generator's own transport holds the only ones.
var control = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// startCluster boots the cluster over fresh spools under dir and
// returns once the router and every node answer /readyz; the returned
// duration is that start-to-ready time.
func startCluster(dir string) (*servingCluster, time.Duration, error) {
	t0 := time.Now()
	c := &servingCluster{dir: dir}
	srvs := make([]*httptest.Server, clusterNodes)
	urls := make([]string, clusterNodes)
	for i := range srvs {
		srvs[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + srvs[i].Listener.Addr().String()
	}
	for i, ts := range srvs {
		spool := filepath.Join(dir, fmt.Sprintf("node%d", i))
		pf := cluster.NewPeerFiller(cluster.PeerFillConfig{Self: urls[i], Peers: urls})
		pf.Start()
		mgr, err := server.NewManager(server.Config{
			Spool: spool, Workers: 1, Threads: 1, QueueDepth: 16, CheckpointEvery: 10,
			CacheBytes: 64 << 20, CacheDir: filepath.Join(spool, "cache"),
			RetryBudget: 3, StallTimeout: 2 * time.Minute, CrashLoopLimit: 3,
			PeerFiller: pf, Handoff: pf,
		})
		if err != nil {
			pf.Stop()
			for _, s := range srvs[i:] {
				s.Close()
			}
			c.stop()
			return nil, 0, err
		}
		ts.Config.Handler = server.NewServer(mgr)
		ts.Start()
		c.nodes = append(c.nodes, &servingNode{url: urls[i], mgr: mgr, ts: ts, pf: pf})
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Peers: urls, ProbeEvery: time.Second, ProbeTimeout: 2 * time.Second, HedgeAfter: 250 * time.Millisecond,
	})
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	router.Start()
	c.router = router
	c.rts = httptest.NewServer(router)
	for _, u := range append([]string{c.rts.URL}, urls...) {
		if err := waitReady(u); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(t0), nil
}

func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := control.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s: %w", base, errNotReady)
}

// stop shuts the router and nodes down, waits for them, and removes
// the spools.
func (c *servingCluster) stop() {
	if c.router != nil {
		c.router.Stop()
	}
	if c.rts != nil {
		c.rts.Close()
	}
	for _, n := range c.nodes {
		n.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.mgr.Shutdown(ctx) // every job is terminal by now; nothing to drain
		cancel()
		n.pf.Stop()
	}
	_ = os.RemoveAll(c.dir)
}

// nodeCounters sums the named counters of every node's /metrics page.
func (c *servingCluster) nodeCounters() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range c.nodes {
		resp, err := control.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' || strings.Contains(line, "{") {
				continue
			}
			name, v, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				sum[name] += f
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// sentReq is one request's client-side record.
type sentReq struct {
	plannedReq
	// idle is when the client was free to send: the moment it saw
	// its previous request done (or the window opened).
	idle, sent, answer time.Time
	status             server.JobStatus
	err                error
	result             []byte
}

// closedLoop runs nproc clients against the router for window, each
// taking the next request of plan in turn and sending it when its
// previous one is done: answered done at submit (a cache hit), or
// seen terminal by polling the job through the router. The clients
// share one transport of at most nproc connections. It returns the
// requests sent, in plan order.
func closedLoop(routerURL string, plan []plannedReq, inputs []mixInput, nproc int, window time.Duration) []*sentReq {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	reqs := make([]*sentReq, len(plan))
	var mu sync.Mutex
	next := 0
	take := func() *sentReq {
		mu.Lock()
		defer mu.Unlock()
		if next == len(plan) {
			return nil
		}
		r := &sentReq{plannedReq: plan[next]}
		reqs[next] = r
		next++
		return r
	}
	runtime.GC()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idle := start
			for time.Now().Before(deadline) {
				r := take()
				if r == nil {
					return
				}
				r.idle = idle
				sp := inputs[r.Spec].spec()
				sp.Tenant, sp.Class = r.Tenant, r.Class
				body, err := json.Marshal(sp)
				if err != nil {
					r.err = err
					return
				}
				submit(client, routerURL, r, body)
				if r.err == nil && !r.status.State.Terminal() {
					r.err = pollDone(client, routerURL, r)
				}
				idle = time.Now()
			}
		}()
	}
	wg.Wait()
	return reqs[:next]
}

func submit(client *http.Client, routerURL string, r *sentReq, body []byte) {
	r.sent = time.Now()
	resp, err := client.Post(routerURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		r.answer = time.Now()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.answer = time.Now()
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return
	}
	r.err = json.Unmarshal(data, &r.status)
}

// pollEvery is the closed-loop client's status poll interval while it
// waits for a solve; the job's own finish time, not the poll, times
// the request.
const pollEvery = 2 * time.Millisecond

func pollDone(client *http.Client, routerURL string, r *sentReq) error {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		time.Sleep(pollEvery)
		resp, err := client.Get(routerURL + "/v1/jobs/" + r.status.ID)
		if err != nil {
			return err
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.State.Terminal() {
			r.status = st
			return nil
		}
	}
	return fmt.Errorf("job %s not done after 2 minutes", r.status.ID)
}

func fetchResult(routerURL, id string) ([]byte, error) {
	resp, err := control.Get(routerURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: status %d", id, resp.StatusCode)
	}
	return body, nil
}

// mixInput is one problem of the pool with its inline text.
type mixInput struct {
	mixSpec
	text string
}

func (in mixInput) spec() server.Spec {
	return server.Spec{Method: in.Method, Iterations: in.Iterations, Matcher: "approx", Problem: in.text}
}

// buildInputs generates the problems' inline texts (untimed).
func buildInputs(specs []mixSpec) ([]mixInput, error) {
	ins := make([]mixInput, len(specs))
	for i, s := range specs {
		so := gen.DefaultSynthetic(s.DBar, s.GenSeed)
		so.N = mixN
		p, err := gen.Synthetic(so)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := problemio.Write(&buf, p); err != nil {
			return nil, err
		}
		ins[i] = mixInput{mixSpec: s, text: buf.String()}
	}
	return ins, nil
}

// solveOptions mirrors the options a node solves a spec with, minus
// its instrumentation (progress observer, checkpoints, step timer),
// none of which changes the result bits.
func solveOptions(in mixInput, threads int) (core.Options, error) {
	mspec, err := matching.ParseMatcherSpec("approx")
	if err != nil {
		return core.Options{}, err
	}
	o := core.Options{
		Method: core.MethodBP,
		BP:     core.BPOptions{Iterations: in.Iterations, Threads: threads, Matcher: mspec},
		MR:     core.MROptions{Iterations: in.Iterations, Threads: threads, Matcher: mspec},
	}
	if in.Method == "mr" {
		o.Method = core.MethodMR
	}
	return o, nil
}

// reference is one distinct problem's in-process serial solve, the
// oracle for every served result of that problem.
type reference struct {
	bytes       []byte
	objective   float64
	full, one   time.Duration
	checkpoints []time.Duration
	// threadMismatch reports that the nproc-thread solve serialized
	// to different bytes than the serial one.
	threadMismatch bool
}

// solveReference solves in in-process at 1 thread (the oracle, as the
// nodes solve at 1 thread) and at nproc threads (timed for solve_s,
// and compared with the oracle). With ckptDir set, one more 1-thread
// solve writes a checkpoint every 10 iterations, as a node does, and
// times each write.
func solveReference(in mixInput, nproc int, ckptDir string) (reference, error) {
	var ref reference
	p, err := problemio.Read(strings.NewReader(in.text), 1)
	if err != nil {
		return ref, err
	}
	solve := func(threads int, ckpt func(*core.Checkpoint) error) ([]byte, float64, time.Duration, error) {
		o, err := solveOptions(in, threads)
		if err != nil {
			return nil, 0, 0, err
		}
		if ckpt != nil {
			o.BP.CheckpointEvery, o.BP.CheckpointFunc = 10, ckpt
			o.MR.CheckpointEvery, o.MR.CheckpointFunc = 10, ckpt
		}
		runtime.GC()
		t0 := time.Now()
		res, err := p.Align(context.Background(), o)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		data, err := json.Marshal(res.JSON())
		return data, res.Objective, d, err
	}
	if ref.bytes, ref.objective, ref.one, err = solve(1, nil); err != nil {
		return ref, err
	}
	data, _, full, err := solve(nproc, nil)
	if err != nil {
		return ref, err
	}
	ref.full = full
	ref.threadMismatch = !bytes.Equal(data, ref.bytes)
	if ckptDir != "" {
		path := filepath.Join(ckptDir, "checkpoint.ckpt")
		data, _, _, err := solve(1, func(c *core.Checkpoint) error {
			t0 := time.Now()
			err := problemio.WriteCheckpointFile(path, c)
			ref.checkpoints = append(ref.checkpoints, time.Since(t0))
			return err
		})
		if err != nil {
			return ref, err
		}
		if !bytes.Equal(data, ref.bytes) {
			return ref, fmt.Errorf("checkpointing changed the result")
		}
	}
	return ref, nil
}

// timedProblems is how many pool problems (the first ones of the
// pool, whichever a seed sends) every run solves in-process for
// solve_s, solve_s_1t and objective, so those compare like for like.
const timedProblems = 40

// runServe measures serve-mix: cluster set-up (serveSetupReps times),
// one untimed warm-up job, the first pass of in-process solves, the
// closed-loop window, two more passes, then correctness against
// in-process serial solves of every problem the window sent. More
// cluster starts are interleaved with the passes.
// A traced run adds replays of the admission and persistence layers.
func runServe(o runOpts) (*outcome, error) {
	nproc := runtime.GOMAXPROCS(0)
	plan := makePlan(o.seed)
	inputs, err := buildInputs(pool())
	if err != nil {
		return nil, err
	}
	tmp, err := filepath.Abs(filepath.Join(o.dir, "tmp", fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	out := newOutcome()
	var setups []float64
	// start boots a cluster from a collected heap and records its
	// start-to-ready time.
	start := func() (*servingCluster, error) {
		runtime.GC()
		sc, d, err := startCluster(filepath.Join(tmp, fmt.Sprintf("cluster%d", len(setups))))
		if err == nil {
			setups = append(setups, secs(d))
		}
		return sc, err
	}
	startStop := func() error {
		sc, err := start()
		if err == nil {
			sc.stop()
		}
		return err
	}
	for i := 1; i < serveSetupReps; i++ {
		if err := startStop(); err != nil {
			return nil, err
		}
	}
	c, err := start()
	if err != nil {
		return nil, err
	}
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	if err := warmUp(c.rts.URL, o.seed); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}

	// References: the timed problems in three passes, one before the
	// window and two after it, each problem keeping its fastest time
	// per thread count (the passes lie tens of seconds apart, so a
	// burst of interference from other guests rarely covers all three
	// of a problem's solves), and every other problem the window sent
	// once, for correctness.
	ckptDir := ""
	if o.trace {
		ckptDir = filepath.Join(tmp, "ckpt")
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, err
		}
	}
	refs := map[int]*reference{}
	refer := func(i int) {
		r, err := solveReference(inputs[i], nproc, ckptDir)
		if err != nil {
			out.fail(fmt.Sprintf("reference solve of problem %d: %v", i, err))
			return
		}
		prev, ok := refs[i]
		if !ok {
			refs[i] = &r
			return
		}
		if !bytes.Equal(r.bytes, prev.bytes) {
			out.fail(fmt.Sprintf("problem %d: two serial solves gave different result bytes", i))
		}
		prev.one = min(prev.one, r.one)
		prev.full = min(prev.full, r.full)
		prev.threadMismatch = prev.threadMismatch || r.threadMismatch
		prev.checkpoints = append(prev.checkpoints, r.checkpoints...)
	}
	// Every few timed problems, one more cluster start: these spread
	// setup_s's samples over the tens of seconds the passes take, where
	// the first starts all fall in the same fraction of a second.
	timedPass := func() error {
		for i := 0; i < timedProblems; i++ {
			refer(i)
			if i%passStartEvery == passStartEvery-1 {
				if err := startStop(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := timedPass(); err != nil {
		return nil, err
	}

	reqs := closedLoop(c.rts.URL, plan, inputs, nproc, o.seconds)
	for _, r := range reqs {
		if r.err == nil && r.status.State == server.StateDone {
			r.result, r.err = fetchResult(c.rts.URL, r.status.ID)
		}
	}
	counters, err := c.nodeCounters()
	if err != nil {
		return nil, err
	}
	c.stop()
	c = nil

	for pass := 0; pass < 2; pass++ {
		if err := timedPass(); err != nil {
			return nil, err
		}
	}
	for _, r := range reqs {
		if _, ok := refs[r.Spec]; !ok {
			refer(r.Spec)
		}
	}

	out.attempted = len(reqs)
	var lat, hitLat, missLat, lateMS, submitHit, submitMiss, waitMS, runMS []float64
	var lastDone time.Time
	completed := 0
	for i, r := range reqs {
		lateMS = append(lateMS, ms(lateness(r.idle, r.sent)))
		ref, ok := refs[r.Spec]
		switch {
		case r.err != nil:
		case r.status.State != server.StateDone:
			r.err = fmt.Errorf("job %s ended %s: %s", r.status.ID, r.status.State, r.status.Error)
		case !ok || !bytes.Equal(r.result, ref.bytes):
			r.err = fmt.Errorf("job %s result differs from the serial solve of problem %d", r.status.ID, r.Spec)
		}
		if r.err != nil {
			out.fail(fmt.Sprintf("request %d (%s): %v", i, r.Kind, r.err))
			// A failed or refused request misses every latency limit.
			lat = append(lat, math.Inf(1))
			continue
		}
		completed++
		d := doneLatency(r.sent, r.answer, r.status.Finished)
		if done := r.sent.Add(d); done.After(lastDone) {
			lastDone = done
		}
		lat = append(lat, ms(d))
		submit := ms(r.answer.Sub(r.sent))
		if r.Kind == kindUnique {
			missLat = append(missLat, ms(d))
			submitMiss = append(submitMiss, submit)
			waitMS = append(waitMS, ms(r.status.Started.Sub(r.status.Created)))
			runMS = append(runMS, ms(r.status.Finished.Sub(r.status.Started)))
		} else {
			hitLat = append(hitLat, ms(d))
			submitHit = append(submitHit, submit)
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("the window sent no requests")
	}
	t, err := tailOf(lat)
	if err != nil {
		return nil, err
	}
	lateTail, err := tailOf(lateMS)
	if err != nil {
		return nil, err
	}
	var full, one, objs, ckpts []float64
	var mismatched []int
	for i := 0; i < poolSize; i++ {
		ref, ok := refs[i]
		if !ok {
			continue
		}
		if ref.threadMismatch {
			mismatched = append(mismatched, i)
		}
		for _, d := range ref.checkpoints {
			ckpts = append(ckpts, ms(d))
		}
		if i < timedProblems {
			full = append(full, secs(ref.full))
			one = append(one, secs(ref.one))
			objs = append(objs, ref.objective)
		}
	}
	v := out.vals
	v["setup_s"] = median(setups)
	v["solve_s"] = mean(full)
	v["solve_s_1t"] = mean(one)
	v["objective"] = mean(objs)
	v["peak_rss_mb"] = peakRSSMiB()
	v["p50_ms"] = median(lat)
	v["tail_ms"] = t.Value
	v["jobs_per_s"] = float64(completed) / lastDone.Sub(reqs[0].idle).Seconds()

	v["serve.hit_p50_ms"] = median(hitLat)
	v["serve.miss_p50_ms"] = median(missLat)
	v["serve.fail_frac"] = float64(len(reqs)-completed) / float64(len(reqs))
	v["server.submit_hit_ms"] = median(submitHit)
	v["server.submit_miss_ms"] = median(submitMiss)
	v["server.queue_wait_p50_ms"] = median(waitMS)
	if waitTail, err := tailOf(waitMS); err == nil {
		v["server.queue_wait_tail_ms"] = waitTail.Value
	}
	v["server.run_ms"] = median(runMS)
	hits, misses := counters["netalignd_cache_hits_total"], counters["netalignd_cache_misses_total"]
	v["cache.hit_frac"] = hits / math.Max(1, hits+misses)
	v["server.coalesced_frac"] = counters["netalignd_jobs_coalesced_total"] / float64(len(reqs))
	v["cluster.peer_fills"] = counters["netalignd_peer_fill_total"]
	v["server.rejected"] = counters["netalignd_jobs_rejected_total"] + counters["netalignd_jobs_shed_memory_total"] +
		counters["netalignd_jobs_refused_disk_total"] + counters["netalignd_jobs_shed_quota_total"]
	v["server.failed"] = counters["netalignd_jobs_failed_total"] + counters["netalignd_jobs_quarantined_total"]
	v["bench.gen_late_ms"] = lateTail.Value
	v["parallel.speedup"] = mean(one) / mean(full)
	v["core.thread_mismatch"] = float64(len(mismatched))
	if len(mismatched) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: NOTE: %d problems solved at %d threads gave other result bytes than at 1 thread: %v\n",
			len(mismatched), nproc, mismatched)
	}
	if o.trace {
		v["problemio.checkpoint_write_ms"] = median(ckpts)
		if err := replay(inputs[:timedProblems], refs, tmp, v); err != nil {
			return nil, err
		}
	}
	if lateTail.Value > maxLateMS {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: run invalid: the clients took %.1f ms at p%g to send their next request (limit %d ms)\n",
			lateTail.Value, lateTail.Percentile, maxLateMS)
	}
	out.report["input"] = map[string]any{
		"pool": poolSize, "sentProblems": len(refs), "requests": len(reqs), "clients": nproc, "n": mixN,
		"textBytes": len(inputs[0].text),
	}
	out.report["samples"] = map[string]any{
		"setup": len(setups), "requests": len(lat), "hits": len(hitLat), "misses": len(missLat),
		"tailPercentile": t.Percentile, "lateTailPercentile": lateTail.Percentile,
		"threadMismatch": mismatched,
	}
	out.report["counters"] = counters
	out.report["latencyMs"] = map[string]any{"all": deciles(lat), "hit": deciles(hitLat), "miss": deciles(missLat)}
	return out, nil
}

// serveSetupReps is how many times serve-mix starts its cluster before
// the load window, and passStartEvery how many timed problems each
// further start follows in the in-process passes; setup_s is the
// median of all the starts. A start takes milliseconds, mostly spool
// fsyncs, so more repetitions than the solvers' are cheap.
const (
	serveSetupReps = 31
	passStartEvery = 4
)

// maxLateMS is the client send delay above which a serve-mix run is
// reported invalid: the clients, not the cluster, set the pace.
const maxLateMS = 50

// warmUp runs one job outside the pool through the cluster so the
// window starts with warm code paths and connections.
func warmUp(routerURL string, seed int64) error {
	in, err := buildInputs([]mixSpec{{Method: "bp", DBar: 4, GenSeed: -1 - seed&math.MaxInt32, Iterations: 10}})
	if err != nil {
		return err
	}
	body, err := json.Marshal(in[0].spec())
	if err != nil {
		return err
	}
	r := &sentReq{plannedReq: plannedReq{Kind: kindUnique}}
	submit(control, routerURL, r, body)
	if r.err != nil || r.status.State.Terminal() {
		return r.err
	}
	return pollDone(control, routerURL, r)
}
