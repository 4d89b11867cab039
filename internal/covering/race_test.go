//go:build race

package covering

// raceEnabled reports that the race detector is instrumenting this build;
// the allocation gate skips under it (the detector allocates per tracked
// access), and the plain build runs it.
const raceEnabled = true
