package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie above it.
const minBeyond = 10

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// rank is the nearest-rank index of the q-quantile among n samples.
func rank(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1 // 1e-9: 0.99*100 must rank 99th, not 100th
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// quantile returns the q-quantile of sorted by nearest rank, and how
// many samples lie above that rank.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	idx := rank(len(sorted), q)
	return sorted[idx], len(sorted) - 1 - idx
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func supported(n int, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= minBeyond
}

// tailQuantile is the highest candidate percentile that n samples
// support, or 0 when not even the median is supported.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if supported(n, q) {
			return q
		}
	}
	return 0
}

// series is one latency or rate distribution of a run.
type series struct {
	Unit string
	v    []float64
}

func (s *series) add(v float64) { s.v = append(s.v, v) }

// summary is what a report states about a series.
type summary struct {
	N    int     `json:"n"`
	Unit string  `json:"unit"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	// P99OK is false when fewer than minBeyond samples lie above p99;
	// the value is then the nearest-rank estimate, and Tail/TailQ give
	// the highest percentile the samples do support.
	P99OK bool    `json:"p99_supported"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
	Mean  float64 `json:"mean"`
}

func (s *series) summarize() summary {
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	out := summary{N: len(sorted), Unit: s.Unit}
	if out.N == 0 {
		return out
	}
	out.P50, _ = quantile(sorted, 0.5)
	out.P90, _ = quantile(sorted, 0.9)
	var beyond int
	out.P99, beyond = quantile(sorted, 0.99)
	out.P99OK = beyond >= minBeyond
	out.TailQ = tailQuantile(out.N)
	if out.TailQ > 0 {
		out.Tail, _ = quantile(sorted, out.TailQ)
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	out.Mean = sum / float64(out.N)
	return out
}

// median of a small set of values (set-up repetitions).
func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	v, _ := quantile(sorted, 0.5)
	if n := len(sorted); n > 0 && n%2 == 0 {
		v = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return v
}
