//go:build !race

package sqlagg_test

const raceEnabled = false
