//go:build race

package cover

// raceEnabled reports that the race detector is instrumenting this build.
// The allocation gate skips under it: the detector itself allocates per
// tracked access, so testing.AllocsPerRun would measure the
// instrumentation, not the arena.
const raceEnabled = true
