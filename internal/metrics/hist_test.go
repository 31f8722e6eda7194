package metrics

import (
	"sort"
	"testing"

	"autarky/internal/sim"
)

// oraclePercentile is the definition the histogram must match exactly:
// nearest-rank over the sorted values, with the histogram's clamping
// applied first (values >= max count as max-1).
func oraclePercentile(values []uint64, max uint64, q float64) uint64 {
	clamped := make([]uint64, len(values))
	for i, v := range values {
		if v >= max {
			v = max - 1
		}
		clamped[i] = v
	}
	sort.Slice(clamped, func(i, j int) bool { return clamped[i] < clamped[j] })
	n := uint64(len(clamped))
	rank := uint64(1)
	if q > 0 {
		r := q * float64(n)
		rank = uint64(r)
		if float64(rank) < r {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		if rank > n {
			rank = n
		}
	}
	return clamped[rank-1]
}

// histRange is the range used by the adversarial distributions; small enough
// that saturation actually happens, large enough that the values spread.
const histRange = 1 << 16

// adversarialDistributions enumerates value sets chosen to break inexact
// percentile schemes: point masses, power-of-two boundary straddles, heavy
// tails, saturation, and dense uniform noise.
func adversarialDistributions() map[string][]uint64 {
	r := sim.NewRand(0x415741)
	uniform := make([]uint64, 10_000)
	for i := range uniform {
		uniform[i] = r.Uint64n(histRange)
	}
	heavyTail := make([]uint64, 5_000)
	for i := range heavyTail {
		// Most values tiny, a few enormous: the shape that exposes
		// interpolation error in log-bucketed histograms.
		v := r.Uint64n(64)
		if r.Uint64n(100) == 0 {
			v = histRange - 1 - r.Uint64n(512)
		}
		heavyTail[i] = v
	}
	saturating := make([]uint64, 1_000)
	for i := range saturating {
		saturating[i] = histRange - 100 + r.Uint64n(200) // half beyond range
	}
	return map[string][]uint64{
		"single":       {12345},
		"all-same":     {7, 7, 7, 7, 7, 7, 7, 7, 7},
		"two-point":    {0, 0, 0, histRange - 1, histRange - 1},
		"page-borders": {4095, 4096, 4097, 8191, 8192, 0, histRange - 1},
		"uniform":      uniform,
		"heavy-tail":   heavyTail,
		"saturating":   saturating,
	}
}

func TestHistogramPercentilesExactAgainstOracle(t *testing.T) {
	qs := []float64{-1, 0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1}
	r := sim.NewRand(0xDEC11E)
	for i := 0; i < 50; i++ {
		qs = append(qs, r.Float64())
	}
	for name, values := range adversarialDistributions() {
		h := NewHistogram(histRange)
		for _, v := range values {
			h.Record(v)
		}
		for _, q := range qs {
			want := oraclePercentile(values, histRange, q)
			if got := h.Percentile(q); got != want {
				t.Errorf("%s: Percentile(%v) = %d, oracle %d", name, q, got, want)
			}
		}
	}

	// Queries between Records: each Record after a query must invalidate
	// the sorted order, so every query sees every value recorded so far.
	interleaved := NewHistogram(histRange)
	var seen []uint64
	for i := 0; i < 2_000; i++ {
		v := r.Uint64n(histRange + histRange/16)
		interleaved.Record(v)
		seen = append(seen, v)
		if i%37 != 0 {
			continue
		}
		for _, q := range qs {
			want := oraclePercentile(seen, histRange, q)
			if got := interleaved.Percentile(q); got != want {
				t.Fatalf("interleaved after %d records: Percentile(%v) = %d, oracle %d", i+1, q, got, want)
			}
		}
	}

	// A range that is not a power of two: values clamp at exactly 1000.
	const odd = 1000
	oddValues := make([]uint64, 3_000)
	h := NewHistogram(odd)
	var saturated uint64
	for i := range oddValues {
		oddValues[i] = r.Uint64n(odd + odd/4) // about a fifth saturate
		h.Record(oddValues[i])
		if oddValues[i] >= odd {
			saturated++
		}
	}
	if h.Saturated() != saturated || saturated == 0 {
		t.Errorf("range %d: Saturated = %d, want %d (> 0)", odd, h.Saturated(), saturated)
	}
	if got := h.Percentile(1); got != odd-1 {
		t.Errorf("range %d: Percentile(1) = %d, want the clamp %d", odd, got, odd-1)
	}
	for _, q := range qs {
		want := oraclePercentile(oddValues, odd, q)
		if got := h.Percentile(q); got != want {
			t.Errorf("range %d: Percentile(%v) = %d, oracle %d", odd, q, got, want)
		}
	}
}

func TestHistogramAggregates(t *testing.T) {
	h := NewHistogram(histRange)
	if h.Percentile(0.5) != 0 || h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram must report zeros")
	}
	values := []uint64{3, 99, histRange + 500, 7, histRange - 1}
	var sum uint64
	for _, v := range values {
		h.Record(v)
		sum += v
	}
	if h.Count() != uint64(len(values)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(values))
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %d, want %d", h.Sum(), sum)
	}
	if h.Min() != 3 {
		t.Errorf("Min = %d, want 3", h.Min())
	}
	if h.Max() != histRange+500 {
		t.Errorf("Max = %d, want %d (pre-clamp)", h.Max(), histRange+500)
	}
	if h.Saturated() != 1 {
		t.Errorf("Saturated = %d, want 1", h.Saturated())
	}
	if want := float64(sum) / float64(len(values)); h.Mean() != want {
		t.Errorf("Mean = %v, want %v", h.Mean(), want)
	}
}

func TestHistogramMergeMatchesCombinedOracle(t *testing.T) {
	r := sim.NewRand(0x4E16E)
	a, b := NewHistogram(histRange), NewHistogram(histRange)
	var all []uint64
	for i := 0; i < 4_000; i++ {
		v := r.Uint64n(histRange + histRange/8) // some saturate
		all = append(all, v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	qs := []float64{0.01, 0.5, 0.99, 0.999}
	// Query both halves first: a merge that follows a query must still
	// see, and leave queryable, every sample of both.
	for _, q := range qs {
		a.Percentile(q)
		b.Percentile(q)
	}
	a.Merge(b)
	for _, q := range qs {
		if got, want := a.Percentile(q), oraclePercentile(all, histRange, q); got != want {
			t.Errorf("merged Percentile(%v) = %d, oracle %d", q, got, want)
		}
	}
	if a.Count() != uint64(len(all)) {
		t.Errorf("merged Count = %d, want %d", a.Count(), len(all))
	}
	// Merging into a histogram that was just queried invalidates its order.
	extra := NewHistogram(histRange)
	for i := 0; i < 500; i++ {
		v := r.Uint64n(histRange)
		all = append(all, v)
		extra.Record(v)
	}
	a.Merge(extra)
	for _, q := range qs {
		if got, want := a.Percentile(q), oraclePercentile(all, histRange, q); got != want {
			t.Errorf("Percentile(%v) after a merge that follows a query = %d, oracle %d", q, got, want)
		}
	}
	mergedEmpty := NewHistogram(histRange)
	mergedEmpty.Merge(a)
	if mergedEmpty.Min() != a.Min() || mergedEmpty.Max() != a.Max() {
		t.Errorf("merge into empty lost min/max")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("merging different ranges must panic")
		}
	}()
	a.Merge(NewHistogram(histRange * 2))
}

// TestHistogramRecordZeroAlloc: once Grow has reserved n samples, n Records
// allocate nothing, which keeps the dispatch hot path allocation-free.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	const n = 1_000
	h := NewHistogram(histRange)
	h.Grow(n)
	var v uint64
	// AllocsPerRun makes one warm-up call and one measured call, each
	// recording half of the n reserved samples.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n/2; i++ {
			v = (v + 7919) % (histRange + 64) // a few saturate
			h.Record(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d Records after Grow(%d) allocated %v times, want 0", n/2, n, allocs)
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
}

// BenchmarkHistogramRecord measures one latency sample into reserved room,
// the per-reply cost on the dispatch path. A fresh histogram is built every
// 2^16 samples, untimed, which bounds the benchmark's memory.
func BenchmarkHistogramRecord(b *testing.B) {
	const round = 1 << 16
	b.ReportAllocs()
	var v uint64
	for done := 0; done < b.N; done += round {
		b.StopTimer()
		h := NewHistogram(histRange)
		n := min(round, b.N-done)
		h.Grow(n)
		b.StartTimer()
		for i := 0; i < n; i++ {
			v = (v + 7919) % (histRange + 64)
			h.Record(v)
		}
	}
}
