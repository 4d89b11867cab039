//go:build !race

package espresso

// raceEnabled: see race_test.go.
const raceEnabled = false
