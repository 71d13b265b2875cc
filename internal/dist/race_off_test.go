//go:build !race

package dist

// raceEnabled reports whether the race detector instruments this build;
// allocation bounds do not hold under its instrumentation.
const raceEnabled = false
