package trace

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// exactQuantile is the nearest-rank quantile of a sorted sample — the
// reference the sketch's documented error bound is stated against.
func exactQuantile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestSketchQuantileErrorBound: across the nine Table-1 laws and
// several seeds, every sketch quantile estimate is within the
// documented relative-error bound of the exact sorted-sample
// nearest-rank quantile.
func TestSketchQuantileErrorBound(t *testing.T) {
	laws := dist.Table1()
	if len(laws) != 9 {
		t.Fatalf("Table1 has %d laws, want 9", len(laws))
	}
	ps := []float64{0.5, 0.9, 0.99, 0.999}
	const n = 20000
	for li, law := range laws {
		for seed := uint64(1); seed <= 3; seed++ {
			r := rng.New(seed*1000 + uint64(li))
			sk := NewDefaultSketch()
			samples := make([]float64, n)
			for i := range samples {
				v := dist.Sample(law, r)
				samples[i] = v
				sk.Add(v)
			}
			sort.Float64s(samples)
			for _, p := range ps {
				exact := exactQuantile(samples, p)
				got := sk.Quantile(p)
				// The documented bound plus a few ulps of slack for the
				// log/ceil bucket mapping at bucket boundaries.
				bound := sk.alpha*math.Abs(exact) + 1e-9*math.Abs(exact) + 1e-9
				if math.Abs(got-exact) > bound {
					t.Errorf("law %d seed %d p=%g: sketch %g vs exact %g (err %g > bound %g)",
						li, seed, p, got, exact, math.Abs(got-exact), bound)
				}
			}
			if sk.Quantile(0) != samples[0] || sk.Quantile(1) != samples[n-1] {
				t.Errorf("law %d seed %d: extremes not exact: q0=%g min=%g q1=%g max=%g",
					li, seed, sk.Quantile(0), samples[0], sk.Quantile(1), samples[n-1])
			}
		}
	}
}

// TestSketchMergeOrderIndependence: merge(a,b) and merge(b,a) are
// bitwise identical, and a merged sketch answers quantiles with the
// same bits as a single-pass sketch over the same values.
func TestSketchMergeOrderIndependence(t *testing.T) {
	laws := dist.Table1()
	for li, law := range laws {
		r := rng.New(uint64(li) + 7)
		a, b := NewDefaultSketch(), NewDefaultSketch()
		full := NewDefaultSketch()
		for i := 0; i < 4000; i++ {
			v := dist.Sample(law, r)
			if i%3 == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
			full.Add(v)
		}
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			t.Errorf("law %d: merge(a,b) != merge(b,a) bitwise", li)
		}
		if ab.n != full.n {
			t.Fatalf("law %d: merged count %d, want %d", li, ab.n, full.n)
		}
		// Quantiles depend only on counts, min, and max — all of which
		// are order-independent — so merged vs single-pass must agree
		// bit for bit (only Sum may differ, by float associativity).
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			if math.Float64bits(ab.Quantile(p)) != math.Float64bits(full.Quantile(p)) {
				t.Errorf("law %d: merged Quantile(%g)=%g != single-pass %g",
					li, p, ab.Quantile(p), full.Quantile(p))
			}
		}
	}
}

// TestSketchMergeAcrossWindows forces disjoint and overlapping bucket
// windows (decades apart) so merge exercises the grid-aligned regrow.
func TestSketchMergeAcrossWindows(t *testing.T) {
	a, b := NewDefaultSketch(), NewDefaultSketch()
	for i := 0; i < 100; i++ {
		a.Add(1e-6 * float64(i+1))
		b.Add(1e6 * float64(i+1))
	}
	ab := a.Clone()
	ab.Merge(b)
	ba := b.Clone()
	ba.Merge(a)
	if !ab.Equal(ba) {
		t.Fatal("wide-window merge not commutative")
	}
	if ab.n != 200 {
		t.Fatalf("count %d, want 200", ab.n)
	}
	if got := ab.Quantile(1); got != 1e8 {
		t.Fatalf("q1 = %g, want exact max 1e8", got)
	}
}

func TestSketchSignsAndZero(t *testing.T) {
	sk := NewDefaultSketch()
	vals := []float64{-100, -1.5, 0, 0, 3e-13, 2.5, 1000}
	for _, v := range vals {
		sk.Add(v)
	}
	if sk.n != 7 {
		t.Fatalf("count %d", sk.n)
	}
	if sk.Quantile(0) != -100 || sk.Quantile(1) != 1000 {
		t.Fatalf("extremes: q0=%g q1=%g", sk.Quantile(0), sk.Quantile(1))
	}
	// rank ceil(0.5·7) = 4: sorted values place the 4th at 0 (the zero
	// bucket also absorbs 3e-13).
	if got := sk.Quantile(0.5); got != 0 {
		t.Fatalf("median %g, want 0", got)
	}
	// rank 2 is -1.5: the negative mirror must answer within bound.
	if got := sk.Quantile(2.0 / 7.0); math.Abs(got-(-1.5)) > sk.alpha*1.5+1e-9 {
		t.Fatalf("negative quantile %g, want ≈ -1.5", got)
	}
}

func TestSketchEmptyAndErrors(t *testing.T) {
	sk := NewDefaultSketch()
	if sk.Quantile(0.5) != 0 || sk.n != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	for _, bad := range []float64{0, 1, -0.1, math.NaN()} {
		if _, err := NewQuantileSketch(bad); err == nil {
			t.Errorf("alpha %g accepted", bad)
		}
	}
}

// Clone returns an independent copy.
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := *s
	c.pos = s.pos.clone()
	c.neg = s.neg.clone()
	return &c
}

// Equal reports bitwise equality of the two sketches' contents —
// counts, windows, and the exact extremes compared by Float64bits.
func (s *QuantileSketch) Equal(o *QuantileSketch) bool {
	if math.Float64bits(s.alpha) != math.Float64bits(o.alpha) ||
		s.n != o.n || s.zero != o.zero ||
		math.Float64bits(s.min) != math.Float64bits(o.min) ||
		math.Float64bits(s.max) != math.Float64bits(o.max) {
		return false
	}
	return s.pos.equal(&o.pos) && s.neg.equal(&o.neg)
}

func (d *sketchSide) clone() sketchSide {
	c := *d
	if d.counts != nil {
		c.counts = make([]uint64, len(d.counts))
		copy(c.counts, d.counts)
	}
	return c
}

func (d *sketchSide) equal(o *sketchSide) bool {
	if d.n != o.n || len(d.counts) != len(o.counts) {
		return false
	}
	if d.counts == nil {
		return true
	}
	if d.base != o.base || d.lo != o.lo || d.hi != o.hi {
		return false
	}
	for i, c := range d.counts {
		if c != o.counts[i] {
			return false
		}
	}
	return true
}
