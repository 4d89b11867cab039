//go:build !race

package covering

// raceEnabled: see race_test.go.
const raceEnabled = false
