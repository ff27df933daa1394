package main

import (
	"math"
	"time"
)

// histGamma is the ratio between neighbouring bucket bounds. A value
// is reported as its bucket's geometric midpoint, so the relative error
// of any quantile is at most sqrt(histGamma)-1 ≈ 0.5%.
const histGamma = 1.01

// histBuckets spans 1 ns to about 1000 s at histGamma.
const histBuckets = 2800

var logGamma = math.Log(histGamma)

// hist is a log-bucketed latency histogram in nanoseconds with an
// overflow count for failed operations (+Inf). Not safe for concurrent
// use: give each goroutine its own and merge.
type hist struct {
	counts [histBuckets]int64
	inf    int64
	n      int64
}

func bucketOf(ns float64) int {
	if ns <= 1 {
		return 0
	}
	i := int(math.Log(ns) / logGamma)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// observe records one value in nanoseconds.
func (h *hist) observe(ns float64) {
	h.n++
	if math.IsInf(ns, 1) {
		h.inf++
		return
	}
	h.counts[bucketOf(ns)]++
}

func (h *hist) observeDur(d time.Duration) { h.observe(float64(d)) }

// fail records an operation that never completed as +Inf.
func (h *hist) fail() { h.observe(math.Inf(1)) }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.inf += o.inf
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds: the
// value of rank ceil(q·n) in sorted order, within 0.5%. It is +Inf when
// that rank falls among failures and NaN on an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return math.Exp((float64(i) + 0.5) * logGamma)
		}
	}
	return math.Inf(1)
}

// ms converts a quantile in nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// us converts a quantile in nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }
