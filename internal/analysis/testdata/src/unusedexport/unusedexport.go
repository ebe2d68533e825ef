// Package unusedexport is a golden-file fixture for the unusedexport
// analyzer. It is its own module (see go.mod), so the module-wide
// reference set is this directory tree: cmd/tool is the main package
// that uses part of the API, and unusedexport_test.go references the
// rest, which never counts. The module path holds an internal element,
// so the public-API exemption does not apply.
package unusedexport

// OnlyTests is referenced only by this package's test file.
func OnlyTests() int { return 1 } // want `func OnlyTests has no non-test use in the module`

// ForMain is referenced only from the main package cmd/tool.
func ForMain() int { return 2 }

// Recursive refers only to itself.
func Recursive(n int) int { // want `func Recursive has no non-test use`
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Box is generic; cmd/tool calls Get on an instantiation, which
// reaches the declared method only through Func.Origin.
type Box[T any] struct{ V T }

func (b Box[T]) Get() T { return b.V }

func (b Box[T]) Put(v T) Box[T] { return Box[T]{V: v} } // want `method Box.Put has no non-test use`

// Level's String, Error, Is and MarshalText are reached through fmt,
// errors and encoding/json, and Levels' Len/Less/Swap through sort; no
// signature in the module names those interfaces.
type Level int

func (l Level) String() string { return "level" }

func (l Level) Error() string { return "level" }

func (l Level) Is(target error) bool { return target == error(l) }

func (l Level) MarshalText() ([]byte, error) { return []byte("level"), nil }

func (l Level) Wrap() error { return l } // want `method Level.Wrap has no non-test use`

type Levels []Level

func (s Levels) Len() int           { return len(s) }
func (s Levels) Less(i, j int) bool { return s[i] < s[j] }
func (s Levels) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Shape is a fixture interface that cmd/tool names; Square satisfies
// it through Area.
type Shape interface{ Area() float64 }

// Square's exported fields are never reported: encoding/json reaches
// fields by reflection. Label has no reference anywhere.
type Square struct {
	Side  float64
	Label string
}

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want `method Square.Perimeter has no non-test use`

// Orphan is named only in its own method.
type Orphan struct{} // want `type Orphan has no non-test use`

func (o *Orphan) self() *Orphan { return o }

// Limit and Default are referenced only by the test file.
const Limit = 3 // want `const Limit has no non-test use`

var Default = Square{Side: 1} // want `var Default has no non-test use`

// Kept is an oracle kept under a reasoned ignore.
//
//lint:ignore unusedexport fixture: an ignore with a reason suppresses the finding
func Kept() int { return 4 }

// Bare's ignore has no reason, so it suppresses nothing and is itself
// a finding.
/* want `lint:ignore needs a rule and a reason` */ //lint:ignore unusedexport
func Bare() int {                                  // want `func Bare has no non-test use`
	return 5
}
