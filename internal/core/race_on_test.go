//go:build race

package core

// raceEnabled reports a -race build, whose detector allocates on its own
// account and makes sync.Pool drop puts at random: allocation counts then
// measure the instrumentation.
const raceEnabled = true
