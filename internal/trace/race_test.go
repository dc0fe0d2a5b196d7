//go:build race

package trace

// raceEnabled reports a -race build. The race detector's sync.Pool
// drops a random quarter of Puts, so allocation bounds that rely on
// pooled scratch are not checked under it.
const raceEnabled = true
