//go:build race

package machine

// raceEnabled reports a race-detector build, whose instrumentation slows
// the single-goroutine engine runs by an order of magnitude.
const raceEnabled = true
