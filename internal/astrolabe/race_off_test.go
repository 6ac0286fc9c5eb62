//go:build !race

package astrolabe

const raceEnabled = false
