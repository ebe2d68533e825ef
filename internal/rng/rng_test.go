package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.s == [4]uint64{} {
		t.Fatal("zero seed left an all-zero state")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero-seeded source repeated values: %d unique of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", u)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(12345)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		u := r.Float64()
		sum += u
		sum2 += u * u
	}
	mean := sum / n
	varc := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %g, want ≈0.5", mean)
	}
	if math.Abs(varc-1.0/12.0) > 0.005 {
		t.Errorf("uniform variance = %g, want ≈%g", varc, 1.0/12.0)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(99)
	for i := 0; i < 100000; i++ {
		if u := r.Float64Open(); u <= 0 || u >= 1 {
			t.Fatalf("Float64Open out of (0,1): %g", u)
		}
	}
}

func TestJumpDisjointness(t *testing.T) {
	// After a jump the stream must not reproduce the pre-jump prefix.
	a := New(5)
	prefix := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		prefix[a.Uint64()] = true
	}
	b := New(5)
	b.Jump()
	collisions := 0
	for i := 0; i < 10000; i++ {
		if prefix[b.Uint64()] {
			collisions++
		}
	}
	if collisions > 2 {
		t.Errorf("jumped stream collided with prefix %d times", collisions)
	}
}

func TestSplitStreamsIndependentAndStable(t *testing.T) {
	s1 := Split(11, 4)
	s2 := Split(11, 8)
	// The first 4 streams must be identical regardless of how many
	// streams were requested (worker-count independence).
	for i := 0; i < 4; i++ {
		for j := 0; j < 100; j++ {
			if s1[i].Uint64() != s2[i].Uint64() {
				t.Fatalf("stream %d differs between Split(11,4) and Split(11,8)", i)
			}
		}
	}
	// Distinct streams differ.
	s := Split(11, 2)
	diff := false
	for j := 0; j < 100; j++ {
		if s[0].Uint64() != s[1].Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("Split streams 0 and 1 are identical")
	}
	if got := Split(3, 0); len(got) != 1 {
		t.Errorf("Split(3,0) returned %d streams, want 1", len(got))
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(2024)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	varc := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g, want ≈0", mean)
	}
	if math.Abs(varc-1) > 0.02 {
		t.Errorf("normal variance = %g, want ≈1", varc)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(77)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("negative exponential variate %g", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %g, want ≈1", mean)
	}
}

func TestUint64nRangeAndUniformity(t *testing.T) {
	r := New(55)
	const n = 7
	counts := make([]int, n)
	const draws = 140000
	for i := 0; i < draws; i++ {
		v := r.Uint64n(n)
		if v >= n {
			t.Fatalf("Uint64n(%d) = %d", n, v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-draws/n) > 0.05*draws/n {
			t.Errorf("bucket %d: %d draws, want ≈%d", i, c, draws/n)
		}
	}
	// Power-of-two fast path.
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	r.Uint64n(0)
}
