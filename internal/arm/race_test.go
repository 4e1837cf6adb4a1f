//go:build race

package arm_test

// raceEnabled reports a race-detector build, whose instrumentation
// allocates behind the code under test.
const raceEnabled = true
