//go:build race

package pubsub

// raceEnabled lets allocation budgets stand down under the race detector,
// which allocates on its own account.
const raceEnabled = true
