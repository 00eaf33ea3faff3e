//go:build race

package passhash

// raceEnabled: the race detector's instrumentation allocates on its
// own, so allocation counts are not the program's.
const raceEnabled = true
