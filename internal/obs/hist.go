package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numBuckets covers the full non-negative int64 range: values 0..7 get exact
// buckets, and every power-of-two octave above is split into 4 sub-buckets
// (two significant bits), bounding the relative quantile error at ~12.5%.
// The largest index is bucketIndex(MaxInt64) = 4*63+3-8 = 247.
const numBuckets = 248

// Histogram is a lock-free log-scale histogram for latencies and sizes.
// Observations are atomic per-bucket increments, safe under the search worker
// pool; quantiles are reconstructed from the buckets at snapshot time. The
// nil *Histogram is a valid no-op handle.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // stored as observed+1 so the zero value means "none"
	max     atomic.Int64 // stored as observed+1
	buckets [numBuckets]atomic.Int64
}

// bucketIndex maps a non-negative value to its bucket. Negative values clamp
// to bucket 0.
func bucketIndex(v int64) int {
	if v < 8 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v))               // ≥ 4
	sub := int((uint64(v) >> uint(exp-3)) & 3) // the two bits below the leading one
	return 4*exp + sub - 8
}

// bucketMid returns a representative (midpoint) value for a bucket, used when
// reconstructing quantiles.
func bucketMid(idx int) int64 {
	if idx < 8 {
		return int64(idx)
	}
	exp := (idx + 8) / 4
	sub := (idx + 8) % 4
	width := int64(1) << uint(exp-3)
	lo := int64(4+sub) << uint(exp-3)
	return lo + width/2
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		cur := h.min.Load()
		if cur != 0 && cur-1 <= v {
			break
		}
		if h.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur != 0 && cur-1 >= v {
			break
		}
		if h.max.CompareAndSwap(cur, v+1) {
			break
		}
	}
}

// HistSnapshot is a consistent-enough point-in-time view of a histogram.
type HistSnapshot struct {
	Count, Sum, Min, Max int64
	P50, P90, P99        int64
}

// Snapshot computes the distribution summary. Concurrent Observe calls may
// skew a snapshot by a few in-flight observations; end-of-run reporting reads
// a quiesced histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var s HistSnapshot
	var counts [numBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		s.Count += counts[i]
	}
	s.Sum = h.sum.Load()
	if mn := h.min.Load(); mn != 0 {
		s.Min = mn - 1
	}
	if mx := h.max.Load(); mx != 0 {
		s.Max = mx - 1
	}
	s.P50 = quantile(&counts, s.Count, 0.50, s.Min, s.Max)
	s.P90 = quantile(&counts, s.Count, 0.90, s.Min, s.Max)
	s.P99 = quantile(&counts, s.Count, 0.99, s.Min, s.Max)
	return s
}

// Quantile returns the q-th quantile (q in [0,1]) reconstructed from the
// bucket midpoints.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	var counts [numBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	var mn, mx int64
	if v := h.min.Load(); v != 0 {
		mn = v - 1
	}
	if v := h.max.Load(); v != 0 {
		mx = v - 1
	}
	return quantile(&counts, total, q, mn, mx)
}

// quantile walks the buckets to the target rank. The estimate is clamped to
// the observed [min, max] so single-observation histograms report exactly.
func quantile(counts *[numBuckets]int64, total int64, q float64, min, max int64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	seen := int64(0)
	for i := 0; i < numBuckets; i++ {
		seen += counts[i]
		if seen >= rank {
			v := bucketMid(i)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}
