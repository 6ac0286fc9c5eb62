//go:build !race

package news_test

const raceEnabled = false
