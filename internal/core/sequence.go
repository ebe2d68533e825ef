package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEnd reports that a finite sequence has no further reservations.
var ErrEnd = errors.New("core: sequence exhausted")

// ErrNonIncreasing reports that a sequence generator produced a value
// not strictly larger than its predecessor. Per §2.2 of the paper a
// reservation sequence must be strictly increasing; the brute-force
// heuristic treats candidates that violate this as invalid (§4.1).
var ErrNonIncreasing = errors.New("core: sequence is not strictly increasing")

// ErrTooLong reports that a sequence needed more than MaxSequenceLen
// materialized elements. It guards against degenerate generators whose
// values grow too slowly to ever cover the sampled durations.
var ErrTooLong = errors.New("core: sequence exceeded the maximum materialized length")

// MaxSequenceLen bounds how many reservations a sequence will
// materialize before giving up.
const MaxSequenceLen = 100000

// Generator produces the i-th reservation (0-based) given the already
// materialized prefix. Returning ok=false ends the sequence (finite
// sequences, e.g. for distributions with bounded support).
type Generator func(i int, prefix []float64) (t float64, ok bool)

// Sequence is a lazily materialized, strictly increasing sequence of
// reservation lengths t_1 < t_2 < ... (stored 0-based). Sequences are
// not safe for concurrent use; clone per goroutine with Clone.
type Sequence struct {
	vals []float64
	gen  Generator
	done bool
	err  error
}

// NewSequence returns a lazily generated sequence.
func NewSequence(gen Generator) *Sequence {
	return &Sequence{gen: gen}
}

// NewExplicitSequence returns a finite sequence with the given
// reservation lengths, which must be strictly increasing and positive.
func NewExplicitSequence(vals ...float64) (*Sequence, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("core: explicit sequence needs at least one reservation")
	}
	prev := 0.0
	for i, v := range vals {
		if math.IsNaN(v) || v <= prev {
			return nil, fmt.Errorf("core: explicit sequence value %d (%g) is not strictly increasing from %g", i, v, prev)
		}
		prev = v
	}
	s := &Sequence{vals: append([]float64(nil), vals...), done: true}
	return s, nil
}

// Clone returns an independent copy sharing the generator; safe to use
// from another goroutine as long as the generator itself is pure.
func (s *Sequence) Clone() *Sequence {
	cp := &Sequence{
		vals: append([]float64(nil), s.vals...),
		gen:  s.gen,
		done: s.done,
		err:  s.err,
	}
	return cp
}

// At returns the i-th reservation length (0-based), materializing the
// prefix as needed. It returns ErrEnd past the end of a finite
// sequence, ErrNonIncreasing if the generator misbehaves, and
// ErrTooLong past MaxSequenceLen.
func (s *Sequence) At(i int) (float64, error) {
	if i < 0 {
		return math.NaN(), fmt.Errorf("core: negative sequence index %d", i)
	}
	for len(s.vals) <= i {
		if s.err != nil {
			return math.NaN(), s.err
		}
		if s.done {
			return math.NaN(), ErrEnd
		}
		if len(s.vals) >= MaxSequenceLen {
			s.err = ErrTooLong
			return math.NaN(), s.err
		}
		if s.gen == nil {
			s.done = true
			return math.NaN(), ErrEnd
		}
		v, ok := s.gen(len(s.vals), s.vals)
		if !ok {
			s.done = true
			continue
		}
		prev := 0.0
		if len(s.vals) > 0 {
			prev = s.vals[len(s.vals)-1]
		}
		if math.IsNaN(v) || v <= prev {
			s.err = ErrNonIncreasing
			return math.NaN(), s.err
		}
		s.vals = append(s.vals, v)
	}
	return s.vals[i], nil
}

// Materialized returns a copy of the values computed so far.
func (s *Sequence) Materialized() []float64 {
	return append([]float64(nil), s.vals...)
}

// Prefix materializes and returns the first n values (fewer if the
// sequence is finite and shorter). The error is non-nil only for
// generator failures, not for ErrEnd.
func (s *Sequence) Prefix(n int) ([]float64, error) {
	for i := 0; i < n; i++ {
		if _, err := s.At(i); err != nil {
			if errors.Is(err, ErrEnd) {
				break
			}
			return nil, err
		}
	}
	if n > len(s.vals) {
		n = len(s.vals)
	}
	return append([]float64(nil), s.vals[:n]...), nil
}

// FirstCovering returns the 0-based index of the first reservation
// >= t, materializing the sequence as needed. It returns ErrUncovered
// if a finite sequence ends below t.
func (s *Sequence) FirstCovering(t float64) (int, error) {
	// Fast path on the materialized prefix.
	if n := len(s.vals); n > 0 && s.vals[n-1] >= t {
		return sort.SearchFloat64s(s.vals, t), nil
	}
	for i := len(s.vals); ; i++ {
		v, err := s.At(i)
		if err != nil {
			if errors.Is(err, ErrEnd) {
				return 0, ErrUncovered
			}
			return 0, err
		}
		if v >= t {
			return i, nil
		}
	}
}

// String renders a short preview of the sequence.
func (s *Sequence) String() string {
	preview, err := s.Clone().Prefix(6)
	if err != nil {
		return fmt.Sprintf("Sequence(invalid: %v)", err)
	}
	out := "Sequence("
	for i, v := range preview {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%.4g", v)
	}
	if !s.done || len(s.vals) > len(preview) {
		out += ", …"
	}
	return out + ")"
}
