package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a p99 needs 1,000 samples, a p90 100, a p50 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it is reportable: at least minBeyond samples lie strictly
// beyond its rank. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], n-1-idx >= minBeyond
}

// median of xs (mean of the middle pair for even lengths); 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqm is the interquartile mean: the mean of the middle half of xs
// (the middle three of five). On a host whose speed flips between
// modes it varies less than the median, which jumps between them.
func iqm(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo := n / 4
	if lo == 0 {
		lo = 1
	}
	return mean(s[lo : n-lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a half-open time interval [lo, hi) in seconds.
type interval struct{ lo, hi float64 }

// covered returns the total length of the union of ivs clipped to w.
func covered(w interval, ivs []interval) float64 {
	var clip []interval
	for _, iv := range ivs {
		lo, hi := math.Max(iv.lo, w.lo), math.Min(iv.hi, w.hi)
		if hi > lo {
			clip = append(clip, interval{lo, hi})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].lo < clip[j].lo })
	var total float64
	cur := interval{math.Inf(-1), math.Inf(-1)}
	for _, iv := range clip {
		if iv.lo > cur.hi {
			if cur.hi > cur.lo {
				total += cur.hi - cur.lo
			}
			cur = iv
			continue
		}
		cur.hi = math.Max(cur.hi, iv.hi)
	}
	if cur.hi > cur.lo {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (overlapping children are counted once).
func selfTime(parent interval, children []interval) float64 {
	return (parent.hi - parent.lo) - covered(parent, children)
}
