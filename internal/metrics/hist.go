package metrics

import "slices"

// Histogram is the per-request latency recorder of the service layer. It
// keeps every recorded value in one flat slice, so the percentiles it
// reports at experiment end are *exact* nearest-rank order statistics, not
// interpolated estimates from buckets.
//
// Every caller knows its sample count up front (an open-loop schedule's
// length), so Grow reserves the slice once and Record is then one append:
// no allocation on the dispatch hot path. Samples are stored as uint32,
// which bounds the range at 2^32 cycles. The slice is sorted lazily, on the
// first Percentile after a write. Values at or beyond the configured
// maximum are clamped to max-1 and tallied separately (Saturated), so a
// misconfigured range is visible instead of silently skewing the tail.
//
// Like every metrics structure, a Histogram belongs to one machine on one
// goroutine; cross-cell aggregation merges immutable snapshots via Merge
// after the cells finish.
type Histogram struct {
	max     uint64   // values >= max clamp to max-1
	samples []uint32 // every recorded value, clamped
	sorted  bool     // samples is in ascending order

	sum       uint64
	min       uint64
	maxSeen   uint64
	saturated uint64
}

// NewHistogram returns a histogram covering [0, max) cycles exactly; values
// at or beyond max are clamped and counted as saturated. A max of 0 or
// beyond 2^32 is taken as 2^32, the widest range a sample holds.
func NewHistogram(max uint64) *Histogram {
	if max == 0 || max > 1<<32 {
		max = 1 << 32
	}
	return &Histogram{max: max}
}

// Grow reserves room for n more samples, so the next n Records allocate
// nothing.
func (h *Histogram) Grow(n int) { h.samples = slices.Grow(h.samples, n) }

// Record adds one value. Values at or beyond the histogram's range clamp
// to max-1 and bump the saturation counter.
func (h *Histogram) Record(v uint64) {
	if len(h.samples) == 0 || v < h.min {
		h.min = v
	}
	if v > h.maxSeen {
		h.maxSeen = v
	}
	h.sum += v
	if v >= h.max {
		h.saturated++
		v = h.max - 1
	}
	h.samples = append(h.samples, uint32(v))
	h.sorted = false
}

// Count reports how many values were recorded.
func (h *Histogram) Count() uint64 { return uint64(len(h.samples)) }

// Sum reports the sum of all recorded values (before clamping).
func (h *Histogram) Sum() uint64 { return h.sum }

// Min reports the smallest recorded value (0 when empty).
func (h *Histogram) Min() uint64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest recorded value (before clamping; 0 when empty).
func (h *Histogram) Max() uint64 { return h.maxSeen }

// Saturated reports how many recorded values fell beyond the histogram's
// range and were clamped.
func (h *Histogram) Saturated() uint64 { return h.saturated }

// Mean reports the arithmetic mean of recorded values (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return float64(h.sum) / float64(len(h.samples))
}

// Percentile returns the exact q-quantile (0 < q <= 1) by nearest rank: the
// value at index ceil(q*n)-1 of the sorted sequence of recorded values.
// Saturated values report max-1 (their clamped value). q <= 0 returns the
// minimum recorded value; an empty histogram returns 0. The first query
// after a write sorts the samples in place, so Percentile is itself a write.
func (h *Histogram) Percentile(q float64) uint64 {
	n := uint64(len(h.samples))
	if n == 0 {
		return 0
	}
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
	rank := uint64(1)
	if q > 0 {
		r := q * float64(n)
		rank = uint64(r)
		if float64(rank) < r {
			rank++
		}
		rank = min(max(rank, 1), n)
	}
	return uint64(h.samples[rank-1])
}

// Merge adds every sample of o to h. The histograms must have the same
// range; Merge panics otherwise (merging differently-clamped tails would
// silently corrupt the percentiles).
func (h *Histogram) Merge(o *Histogram) {
	if h.max != o.max {
		panic("metrics: merging histograms with different ranges")
	}
	if len(o.samples) == 0 {
		return
	}
	if len(h.samples) == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.maxSeen > h.maxSeen {
		h.maxSeen = o.maxSeen
	}
	h.sum += o.sum
	h.saturated += o.saturated
	h.samples = append(h.samples, o.samples...)
	h.sorted = false
}
