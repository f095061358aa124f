package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		got, err := tailPercentile(tc.n)
		if err != nil || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, got, err, tc.want)
			continue
		}
		if beyond := tc.n - rankIndex(got, tc.n) - 1; beyond < minBeyond {
			t.Errorf("n=%d p%v leaves %d samples beyond, want >= %d", tc.n, got, beyond, minBeyond)
		}
	}
	if _, err := tailPercentile(19); err == nil {
		t.Error("tailPercentile(19) succeeded; fewer than 20 samples have no tail with 10 beyond")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 .. 1, unsorted input
	}
	tl, err := tailOf(xs)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Percentile != 99 || tl.Value != 990 {
		t.Errorf("tail of 1..1000 = p%v %v, want p99 990 (10 samples beyond)", tl.Percentile, tl.Value)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile([]float64{5}, 50); got != 5 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

// The solver workloads read p50_ms and tail_ms off the iterations of
// the fastest few nproc solves, so every run reports the same tail
// percentile however many solves fitted in its window.
func TestFastestSolvesFixTheIterationTail(t *testing.T) {
	var runs []solveRun
	for i := 7; i >= 1; i-- {
		iters := make([]time.Duration, 20)
		for j := range iters {
			iters[j] = time.Duration(i*100+j) * time.Millisecond
		}
		runs = append(runs, solveRun{elapsed: time.Duration(i) * time.Second, iters: iters})
	}
	fast := fastest(runs, fastestSolves)
	if len(fast) != fastestSolves {
		t.Fatalf("fastest returned %d solves, want %d", len(fast), fastestSolves)
	}
	for i, r := range fast {
		if want := time.Duration(i+1) * time.Second; r.elapsed != want {
			t.Errorf("fastest[%d] took %v, want %v", i, r.elapsed, want)
		}
	}
	if runs[0].elapsed != 7*time.Second {
		t.Error("fastest reordered its input")
	}
	var iterMS []float64
	for _, r := range fast {
		for _, d := range r.iters {
			iterMS = append(iterMS, ms(d))
		}
	}
	if tl, err := tailOf(iterMS); err != nil || tl.Percentile != 75 {
		t.Errorf("tail over %d solves of 20 iterations = %+v, %v; want p75", fastestSolves, tl, err)
	}
	if got := len(fastest(runs[:2], fastestSolves)); got != 2 {
		t.Errorf("fastest of 2 solves returned %d", got)
	}
	if got := percentile([]float64{7, 1, 6, 2, 5, 3, 4}, solveQuantile); got != 2 {
		t.Errorf("lower quartile of 1..7 = %v, want 2 (nearest rank)", got)
	}
}

func TestDoneLatencyAndLateness(t *testing.T) {
	sent := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(msec int) time.Time { return sent.Add(time.Duration(msec) * time.Millisecond) }
	for _, tc := range []struct {
		name               string
		received, finished time.Time
		want               time.Duration
	}{
		{"cache hit answered done", at(25), at(20), 25 * time.Millisecond},
		{"miss finishes after the answer", at(30), at(140), 140 * time.Millisecond},
		{"no finish time recorded", at(30), time.Time{}, 30 * time.Millisecond},
	} {
		if got := doneLatency(sent, tc.received, tc.finished); got != tc.want {
			t.Errorf("%s: latency %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := lateness(sent, at(40)); got != 40*time.Millisecond {
		t.Errorf("lateness %v, want 40ms", got)
	}
	if got := lateness(sent, sent.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send lateness %v, want 0", got)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	if err := checkTable(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metric{
		{Name: "", Unit: "ms", Better: "lower"},
		{Name: "_lead", Unit: "ms", Better: "lower"},
		{Name: "has space", Unit: "ms", Better: "lower"},
		{Name: strings.Repeat("x", 65), Unit: "ms", Better: "lower"},
		{Name: "ok", Unit: "", Better: "lower"},
		{Name: "ok", Unit: "seventeen-letters", Better: "lower"},
		{Name: "ok", Unit: "m s", Better: "lower"},
		{Name: "ok", Unit: "ms", Better: "down"},
	} {
		if checkTable([]metric{bad}) == nil {
			t.Errorf("checkTable accepted %+v", bad)
		}
	}
	dup := []metric{{Name: "a", Unit: "ms", Better: "lower"}}
	if checkTable(dup, dup) == nil {
		t.Error("checkTable accepted a name listed twice")
	}
}

func TestRenderRequiresEveryEndToEndMetric(t *testing.T) {
	vals := map[string]float64{}
	for _, m := range endToEnd {
		vals[m.Name] = 1
	}
	if _, err := render(endToEnd, vals); err != nil {
		t.Fatal(err)
	}
	delete(vals, "setup_s")
	if _, err := render(endToEnd, vals); err == nil {
		t.Error("render accepted a missing end-to-end metric")
	}
	vals["setup_s"] = math.NaN()
	if _, err := render(endToEnd, vals); err == nil {
		t.Error("render accepted NaN")
	}
	got, err := render(perLayer, map[string]float64{})
	if err != nil || len(got) != len(perLayer) || got["core.bp.boundF_ms"].Value != 0 {
		t.Errorf("per-layer metrics a workload does not run must read 0; got %v, %v", got, err)
	}
}

// benchmarkFile is BENCHMARK.json with exactly its permitted keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", b.RunSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, program reports %s %s %s", i, m.Name, m.Unit, m.Better, want.Name, want.Unit, want.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound; got %s %s %v", m.Unit, m.Better, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %s %s %s, program reports %s %s %s", i, m.Name, m.Unit, m.Better, want.Name, want.Unit, want.Better)
		}
	}
}

func TestReadmeMapsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range [][]metric{endToEnd, perLayer} {
		for _, m := range table {
			if !bytes.Contains(data, []byte("`"+m.Name+"`")) {
				t.Errorf("README.md does not describe %s", m.Name)
			}
		}
	}
}

func TestMakePlanIsSeededAndWellFormed(t *testing.T) {
	a, b := makePlan(7), makePlan(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a, makePlan(8)) {
		t.Fatal("seeds 7 and 8 gave the same plan")
	}
	if len(a) != planLen {
		t.Fatalf("%d requests, want %d", len(a), planLen)
	}
	if a[0].Kind != kindUnique {
		t.Fatalf("the plan opens with a %s", a[0].Kind)
	}
	introduced := map[int]bool{}
	kinds := map[reqKind]int{}
	for i, r := range a {
		kinds[r.Kind]++
		if r.Spec < 0 || r.Spec >= poolSize {
			t.Fatalf("request %d names problem %d outside the pool", i, r.Spec)
		}
		switch r.Kind {
		case kindUnique:
			if introduced[r.Spec] {
				t.Errorf("problem %d is new twice", r.Spec)
			}
			introduced[r.Spec] = true
		case kindRepeat:
			if !introduced[r.Spec] {
				t.Errorf("request %d repeats problem %d before it was sent", i, r.Spec)
			}
		case kindDuplicate:
			if a[i-1].Kind != kindUnique || a[i-1].Spec != r.Spec {
				t.Errorf("duplicate %d does not follow the new problem it duplicates", i)
			}
		}
		if r.Tenant != "team-a" && r.Tenant != "team-b" || r.Class != "batch" && r.Class != "interactive" {
			t.Errorf("request %d: tenant %q class %q", i, r.Tenant, r.Class)
		}
	}
	// About one request in newEvery is a new problem.
	if want := planLen / newEvery; kinds[kindUnique] < want*2/3 || kinds[kindUnique] > want*3/2 {
		t.Errorf("%d new problems in %d requests, want about %d", kinds[kindUnique], planLen, want)
	}
}

// A timed problem whose reference solve failed has no result to
// write. The run has already counted the failure, so replay skips the
// problem instead of dereferencing a missing reference.
func TestReplaySkipsProblemsWithoutReference(t *testing.T) {
	inputs, err := buildInputs([]mixSpec{poolSpec(0), poolSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]float64{}
	refs := map[int]*reference{1: {bytes: []byte(`{"objective": 1}`)}}
	if err := replay(inputs, refs, t.TempDir(), v); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cluster.key_ms", "server.store_write_ms"} {
		if x := v[name]; math.IsNaN(x) || x <= 0 {
			t.Errorf("%s = %v, want the one replayed problem's time", name, x)
		}
	}
}
