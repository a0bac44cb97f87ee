//go:build race

package engine

// raceEnabled lets heap-measuring tests skip themselves under -race.
const raceEnabled = true
