//go:build race

package experiments

// raceEnabled says the race detector is on. The collector tests then check
// only the golden-scale grid: the -quick grid, run plain and teed for every
// experiment, outlasts go test's default timeout under the detector.
const raceEnabled = true
