//go:build race

package fleet_test

// raceEnabled says the race detector is on. TestExecKnobContract then runs
// only the grids whose concurrency it exists to check.
const raceEnabled = true
