//go:build !race

package cover

const raceEnabled = false
