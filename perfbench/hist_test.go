package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank quantile of sorted values.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		gen  func() float64
	}{
		{"lognormal-ms", func() float64 { return math.Exp(rng.NormFloat64()*1.5) * 2e6 }},
		{"uniform-us", func() float64 { return 1e3 + rng.Float64()*9e3 }},
		{"bimodal", func() float64 {
			if rng.Intn(100) < 3 {
				return 85e6 + rng.Float64()*16e6
			}
			return 3e5 + rng.Float64()*1e5
		}},
		{"few", func() float64 { return float64(1+rng.Intn(5)) * 1e6 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h hist
			vals := make([]float64, 20000)
			for i := range vals {
				vals[i] = tc.gen()
				h.observe(vals[i])
			}
			sort.Float64s(vals)
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				want := exactQuantile(vals, q)
				got := h.quantile(q)
				if rel := math.Abs(got-want) / want; rel > 0.01 {
					t.Errorf("q=%v: got %v, exact %v (rel err %.4f)", q, got, want, rel)
				}
			}
		})
	}
}

func TestHistFailuresAreInf(t *testing.T) {
	var h hist
	for i := 0; i < 98; i++ {
		h.observe(1e6)
	}
	h.fail()
	h.fail()
	if got := h.quantile(0.98); math.Abs(got-1e6)/1e6 > 0.01 {
		t.Fatalf("p98 = %v, want ~1e6", got)
	}
	if got := h.quantile(0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 = %v, want +Inf with 2%% failures", got)
	}
	var m hist
	m.merge(&h)
	if m.n != 100 || m.inf != 2 {
		t.Fatalf("merge: n=%d inf=%d", m.n, m.inf)
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}
