//go:build race

package espresso

// raceEnabled reports that the race detector is instrumenting this build.
// The allocation gate skips under it (the detector allocates per tracked
// access), and the randomized parity sweep shrinks to keep the -race run
// short; the plain build runs both in full.
const raceEnabled = true
