//go:build race

package astrolabe

// raceEnabled lets allocation budgets stand down under the race detector,
// which allocates on its own account and makes sync.Pool drop Puts.
const raceEnabled = true
