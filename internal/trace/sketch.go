package trace

import (
	"fmt"
	"math"
)

// DefaultSketchAlpha is the relative-error bound used by the cluster
// simulator's streaming statistics: quantile estimates are within 1%
// of the exact sorted-sample quantile.
const DefaultSketchAlpha = 0.01

const (
	// sketchZeroEps: values with |v| <= sketchZeroEps share one exact
	// "zero" bucket (the log mapping cannot represent 0).
	sketchZeroEps = 1e-12
	// sketchGrid aligns every bucket window to multiples of 32 indices.
	// The alignment makes the representation canonical: a side's window
	// is a pure function of the extreme indices seen, never of the
	// insertion or merge order, which is what makes Merge bitwise
	// commutative (see TestSketchMergeOrderIndependence).
	sketchGrid = 32
)

// QuantileSketch is a mergeable DDSketch-style quantile summary:
// logarithmic buckets with ratio γ = (1+α)/(1-α) guarantee every
// quantile estimate is within relative error α of the exact
// nearest-rank quantile of the inserted values, at O(log spread)
// memory — independent of how many values are inserted. Min, max and
// count are tracked exactly, and estimates are clamped to [min, max],
// so Quantile(0) and Quantile(1) are exact.
//
// The zero value is not usable; construct with NewQuantileSketch or
// NewDefaultSketch. Inserted values must not be NaN or ±Inf.
type QuantileSketch struct {
	alpha      float64
	gamma      float64
	invLnGamma float64
	midScale   float64 // 2/(γ+1): bucket i estimates to midScale·γ^i

	pos  sketchSide
	neg  sketchSide // mirrored: index i holds values in -(γ^(i-1), γ^i]
	zero uint64
	n    uint64
	min  float64
	max  float64
}

// sketchSide is one sign's dense bucket array. counts[i-base] counts
// values whose log-bucket index is i; lo/hi are the extreme indices
// ever seen, and the window [base, base+len(counts)) is always exactly
// the grid-aligned cover of [lo, hi].
type sketchSide struct {
	counts []uint64
	base   int
	lo, hi int
	n      uint64
}

// NewQuantileSketch returns an empty sketch with relative-error bound
// alpha in (0, 1).
func NewQuantileSketch(alpha float64) (*QuantileSketch, error) {
	if math.IsNaN(alpha) || !(alpha > 0) || !(alpha < 1) {
		return nil, fmt.Errorf("trace: sketch alpha %g must be in (0, 1)", alpha)
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		alpha:      alpha,
		gamma:      gamma,
		invLnGamma: 1 / math.Log(gamma),
		midScale:   2 / (gamma + 1),
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}, nil
}

// NewDefaultSketch returns an empty sketch at DefaultSketchAlpha.
func NewDefaultSketch() *QuantileSketch {
	s, err := NewQuantileSketch(DefaultSketchAlpha)
	if err != nil {
		panic(err) // unreachable: the default alpha is valid
	}
	return s
}

// Add inserts one value.
func (s *QuantileSketch) Add(v float64) {
	s.n++
	s.min = math.Min(s.min, v)
	s.max = math.Max(s.max, v)
	switch {
	case v > sketchZeroEps:
		s.pos.add(s.index(v))
	case v < -sketchZeroEps:
		s.neg.add(s.index(-v))
	default:
		s.zero++
	}
}

// index maps a positive value to its log-bucket: the smallest i with
// v <= γ^i, so bucket i covers (γ^(i-1), γ^i].
func (s *QuantileSketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) * s.invLnGamma))
}

// mid returns bucket i's estimate 2·γ^i/(γ+1), the point whose
// relative error to any value in (γ^(i-1), γ^i] is at most α.
func (s *QuantileSketch) mid(i int) float64 {
	return s.midScale * math.Pow(s.gamma, float64(i))
}

// Merge folds o into s. Panics if the two sketches were built with
// different alphas (their buckets would not line up). The result is
// bitwise independent of merge order: counts add as integers, min/max
// via math.Min/Max, and the grid-aligned windows depend only on the
// union of indices seen.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if math.Float64bits(s.alpha) != math.Float64bits(o.alpha) {
		panic("trace: merging sketches with different alpha")
	}
	s.n += o.n
	s.zero += o.zero
	s.min = math.Min(s.min, o.min)
	s.max = math.Max(s.max, o.max)
	s.pos.merge(&o.pos)
	s.neg.merge(&o.neg)
}

// Quantile returns the nearest-rank p-quantile estimate: the bucket
// midpoint covering the ceil(p·n)-th smallest inserted value, clamped
// to [min, max]. The estimate is within relative error α of the
// exact nearest-rank quantile. An empty sketch returns 0; p is clamped
// to [0, 1].
func (s *QuantileSketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if !(p > 0) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	// Rank 1 is exactly the minimum and rank n exactly the maximum,
	// both tracked precisely — answer them without touching buckets.
	if rank == 1 {
		return s.min
	}
	if rank == s.n {
		return s.max
	}
	cum := uint64(0)
	// Most negative first: for mirrored indices, larger i is more
	// negative, so walk the negative side from hi down to lo.
	if s.neg.n > 0 {
		for i := s.neg.hi; i >= s.neg.lo; i-- {
			cum += s.neg.counts[i-s.neg.base]
			if cum >= rank {
				return s.clamp(-s.mid(i))
			}
		}
	}
	cum += s.zero
	if cum >= rank {
		return s.clamp(0)
	}
	if s.pos.n > 0 {
		for i := s.pos.lo; i <= s.pos.hi; i++ {
			cum += s.pos.counts[i-s.pos.base]
			if cum >= rank {
				return s.clamp(s.mid(i))
			}
		}
	}
	return s.max // unreachable: rank <= n and the buckets cover all n
}

// clamp bounds an estimate by the exact extremes. Clamping never
// weakens the error bound: the exact quantile lies in [min, max], so
// moving the estimate to the nearer boundary moves it toward it.
func (s *QuantileSketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

func (d *sketchSide) add(i int) {
	d.n++
	if d.counts == nil {
		d.lo, d.hi = i, i
		d.base = sketchFloor(i)
		d.counts = make([]uint64, sketchCeil(i+1)-d.base)
	} else if i < d.lo || i > d.hi {
		if i < d.lo {
			d.lo = i
		}
		if i > d.hi {
			d.hi = i
		}
		d.grow()
	}
	d.counts[i-d.base]++
}

// grow reallocates the window to the grid-aligned cover of [lo, hi].
func (d *sketchSide) grow() {
	base := sketchFloor(d.lo)
	top := sketchCeil(d.hi + 1)
	if base == d.base && top == d.base+len(d.counts) {
		return
	}
	next := make([]uint64, top-base)
	copy(next[d.base-base:], d.counts)
	d.base = base
	d.counts = next
}

func (d *sketchSide) merge(o *sketchSide) {
	if o.counts == nil {
		return
	}
	if d.counts == nil {
		d.lo, d.hi, d.base = o.lo, o.hi, o.base
		d.counts = make([]uint64, len(o.counts))
		copy(d.counts, o.counts)
		d.n = o.n
		return
	}
	if o.lo < d.lo {
		d.lo = o.lo
	}
	if o.hi > d.hi {
		d.hi = o.hi
	}
	d.grow()
	for i, c := range o.counts {
		d.counts[o.base+i-d.base] += c
	}
	d.n += o.n
}

// sketchFloor rounds toward -Inf to a multiple of sketchGrid.
func sketchFloor(i int) int {
	q := i / sketchGrid
	if i%sketchGrid != 0 && i < 0 {
		q--
	}
	return q * sketchGrid
}

// sketchCeil rounds toward +Inf to a multiple of sketchGrid.
func sketchCeil(i int) int { return sketchFloor(i + sketchGrid - 1) }
