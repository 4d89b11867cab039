//go:build !race

package exact

// raceEnabled: see race_test.go.
const raceEnabled = false
