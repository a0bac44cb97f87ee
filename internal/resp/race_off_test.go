//go:build !race

package resp

const raceEnabled = false
