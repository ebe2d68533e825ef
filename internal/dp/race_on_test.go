//go:build race

package dp

// raceEnabled lets the heaviest tests scale down under the race
// detector (check.sh runs this package with -race too).
const raceEnabled = true
