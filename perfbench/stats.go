package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first. tailPercentile picks the highest one that leaves at least
// minBeyond samples above it, so a tail is never read off a handful of
// points (p99 needs 1000 samples, p95 needs 200, p90 needs 100).
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder with at
// least minBeyond of n samples beyond it, or an error when n is too
// small for any of them.
func tailPercentile(n int) (float64, error) {
	for _, q := range tailLadder {
		if n-rankIndex(q, n)-1 >= minBeyond {
			return q, nil
		}
	}
	return 0, fmt.Errorf("%d samples: need at least %d for a tail", n, 2*minBeyond)
}

// rankIndex is the nearest-rank index of percentile q in n sorted
// samples: the smallest index i with (i+1)/n >= q/100.
func rankIndex(q float64, n int) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000…02)
	// from pushing an exact rank up by one.
	i := int(math.Ceil(q/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank percentile q of xs (unsorted).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(q, len(s))]
}

// median returns the middle value of xs, averaging the two middle
// values of an even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail summarizes a latency sample by its tail rule: the percentile
// chosen by tailPercentile and the value there.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

func tailOf(xs []float64) (tail, error) {
	q, err := tailPercentile(len(xs))
	if err != nil {
		return tail{}, err
	}
	return tail{Percentile: q, Value: percentile(xs, q), Samples: len(xs)}, nil
}

// ms and secs convert durations to the benchmark's float units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// doneLatency is one request's latency: from when it was sent until
// it was done, which is the later of the client receiving the submit
// answer and the server finishing the job.
func doneLatency(sent, received, finished time.Time) time.Duration {
	done := received
	if finished.After(done) {
		done = finished
	}
	return done.Sub(sent)
}

// lateness is how long after it could have been sent a request was
// handed to the network; never negative.
func lateness(ready, sent time.Time) time.Duration {
	if d := sent.Sub(ready); d > 0 {
		return d
	}
	return 0
}

// deciles returns the 10th..90th percentiles of xs, for reports.
func deciles(xs []float64) []float64 {
	var out []float64
	for q := 10.0; q < 100; q += 10 {
		if v := percentile(xs, q); !math.IsInf(v, 0) && !math.IsNaN(v) {
			out = append(out, math.Round(v*100)/100)
		}
	}
	return out
}
