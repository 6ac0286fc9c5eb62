//go:build race

package wire

// raceEnabled lets allocation budgets that depend on sync.Pool stand down
// under the race detector, where the pool drops a share of Puts on purpose.
const raceEnabled = true
