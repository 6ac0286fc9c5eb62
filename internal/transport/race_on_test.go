//go:build race

package transport

// raceEnabled lets allocation tests that depend on sync.Pool stand down
// under the race detector, where the pool drops a share of Puts on purpose.
const raceEnabled = true
