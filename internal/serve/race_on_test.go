//go:build race

package serve

// raceEnabled reports a -race build, whose instrumentation allocates
// on paths that are otherwise allocation-free.
const raceEnabled = true
