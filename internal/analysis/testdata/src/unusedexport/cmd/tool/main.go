// Command tool is the fixture module's main package: what it
// references counts as used.
package main

import u "example.com/internal/unusedexport"

func main() {
	var b u.Box[int]
	var s u.Shape = u.Square{Side: 2}
	levels := u.Levels{u.Level(2), u.Level(1)}
	println(u.ForMain(), b.Get(), s.Area(), len(levels))
}
