package unusedexport

// useFromTests references the API only tests use; none of these
// references counts.
func useFromTests() int {
	var o Orphan
	_ = o.self()
	return OnlyTests() + Recursive(2) + Limit + int(Default.Area()) + Kept() + Bare() + int(Square{}.Perimeter())
}
