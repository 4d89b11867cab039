//go:build race

package symbolic

// raceEnabled reports that the race detector is instrumenting this build;
// the golden test then skips scf, whose extraction it slows to minutes.
const raceEnabled = true
