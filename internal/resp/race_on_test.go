//go:build race

package resp

// raceEnabled lets allocation-counting tests skip themselves under -race.
const raceEnabled = true
