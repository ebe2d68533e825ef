// Package maporder is a golden-file fixture for the maporder analyzer.
package maporder

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/tablefmt"
)

func printsDuringRange(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)                 // want `fmt.Println inside range over map`
		fmt.Fprintf(os.Stdout, "%s\n", k) // want `fmt.Fprintf inside range over map`
	}
}

func buildsStringDuringRange(m map[string]int, sb *strings.Builder) {
	for k := range m {
		sb.WriteString(k) // want `WriteString call inside range over map`
	}
}

func appendsDuringRange(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out while ranging over a map`
	}
	return out
}

func feedsTableDuringRange(m map[string]float64, t *tablefmt.Table) {
	for k := range m {
		t.AddRow(k) // want `tablefmt call inside range over map`
	}
}

// The idioms below are order-safe and must NOT be flagged.

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func pureReduction(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func loopLocalScratch(m map[string]int) int {
	longest := 0
	for k := range m {
		parts := []string{}
		parts = append(parts, k)
		if len(parts[0]) > longest {
			longest = len(parts[0])
		}
	}
	return longest
}

func rangeOverSliceIsFine(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
		fmt.Println(x)
	}
	return out
}

func suppressed(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:ignore maporder fixture exercises the escape hatch
		out = append(out, k)
	}
	return out
}
