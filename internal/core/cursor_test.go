package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
)

// checkSequence walks got against the oracle's materialized sequence
// want: the first 300 values must be Float64bits-equal, and both must
// end with the same error at the same index.
func checkSequence(t *testing.T, what string, t1 float64, got Cursor, want *Sequence) {
	t.Helper()
	for i := 0; i < 300; i++ {
		w, errW := want.At(i)
		g, errG := got.Next()
		if !sameResult(w, errW, g, errG) {
			t.Fatalf("%s t1=%g i=%d: oracle (%g, %v), got (%g, %v)", what, t1, i, w, errW, g, errG)
		}
		if errW != nil {
			return
		}
	}
}

// TestRecurrenceCursorMatchesSequence: the lazy Sequence and the
// allocation-free cursor must both yield exactly the values (and the
// same terminal error) of the oracle's Eq.-(11) sequence, across the
// parity laws, the three cost models, first reservations inside,
// beyond and below the search interval, and both tail rules.
func TestRecurrenceCursorMatchesSequence(t *testing.T) {
	for _, m := range costCursorModels {
		for _, d := range parityLaws() {
			lo, _ := d.Support()
			hi := BoundFirstReservation(m, d)
			t1s := []float64{0, -1, math.NaN()}
			for _, frac := range parityFracs {
				t1s = append(t1s, lo+(hi-lo)*frac)
			}
			for _, tailEps := range []float64{0, DefaultTailEps} {
				what := fmt.Sprintf("%s %v eps=%g", d.Name(), m, tailEps)
				rc := NewRecurrenceCursor(m, d, 0, tailEps)
				for _, t1 := range t1s {
					rc.Reset(t1)
					checkSequence(t, what+" cursor", t1, &rc, oracleSequenceFromFirstTail(m, d, t1, tailEps))
					sc := SequenceFromFirstTail(m, d, t1, tailEps).Cursor()
					checkSequence(t, what+" sequence", t1, &sc, oracleSequenceFromFirstTail(m, d, t1, tailEps))
				}
			}
		}
	}
}

// TestRecurrenceCursorInvalidFirst: nonpositive and NaN first
// reservations fail with ErrNonIncreasing on both paths.
func TestRecurrenceCursorInvalidFirst(t *testing.T) {
	d := dist.MustExponential(1)
	for _, t1 := range []float64{0, -1, math.NaN()} {
		cur := NewRecurrenceCursor(ReservationOnly, d, t1, 0)
		if _, err := cur.Next(); !errors.Is(err, ErrNonIncreasing) {
			t.Errorf("t1=%g: err = %v, want ErrNonIncreasing", t1, err)
		}
		// The error is sticky.
		if _, err := cur.Next(); !errors.Is(err, ErrNonIncreasing) {
			t.Errorf("t1=%g: repeat err = %v, want ErrNonIncreasing", t1, err)
		}
	}
}

// TestRecurrenceCursorBoundedEnds: on bounded support the cursor closes
// with b and then reports ErrEnd, like the materialized sequence.
func TestRecurrenceCursorBoundedEnds(t *testing.T) {
	d := dist.MustUniform(10, 20)
	cur := NewRecurrenceCursor(ReservationOnly, d, 25, 0) // t1 past b: clamps to b
	v, err := cur.Next()
	if err != nil || math.Abs(v-20) > 0 {
		t.Fatalf("first = %g, %v; want 20", v, err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrEnd) {
		t.Errorf("after b: err = %v, want ErrEnd", err)
	}
}

// TestRecurrenceCursorReset: a reset cursor replays exactly the values
// of a fresh one, including after an error.
func TestRecurrenceCursorReset(t *testing.T) {
	d := dist.MustLogNormal(3, 0.5)
	m := ReservationOnly
	cur := NewRecurrenceCursor(m, d, -1, DefaultTailEps)
	if _, err := cur.Next(); err == nil {
		t.Fatal("want error for t1 = -1")
	}
	cur.Reset(25)
	fresh := NewRecurrenceCursor(m, d, 25, DefaultTailEps)
	for i := 0; i < 50; i++ {
		a, errA := cur.Next()
		b, errB := fresh.Next()
		if (errA == nil) != (errB == nil) || (errA == nil && a != b) { //lint:ignore floatcmp parity test: identical operations must give identical bits
			t.Fatalf("i=%d: reset cursor (%g, %v) vs fresh (%g, %v)", i, a, errA, b, errB)
		}
		if errA != nil {
			break
		}
	}
}

// TestSequenceCursorWalksSequence: the Sequence adapter yields At(0..)
// and ends with the sequence's own error.
func TestSequenceCursorWalksSequence(t *testing.T) {
	s, err := NewExplicitSequence(1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cur := s.Cursor()
	want := []float64{1, 2, 4}
	for i, w := range want {
		v, err := cur.Next()
		if err != nil || v != w { //lint:ignore floatcmp exact assigned values
			t.Fatalf("i=%d: got (%g, %v), want %g", i, v, err, w)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, ErrEnd) {
		t.Errorf("err = %v, want ErrEnd", err)
	}
}
