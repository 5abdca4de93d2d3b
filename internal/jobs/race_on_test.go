//go:build race

package jobs

// raceEnabled is true when the race detector is compiled in: its
// instrumentation allocates, so allocation pins skip under it.
const raceEnabled = true
