//go:build race

package core

// raceEnabled lets allocation-counting tests skip themselves under -race.
const raceEnabled = true
