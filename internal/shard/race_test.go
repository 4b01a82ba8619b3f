//go:build race

package shard_test

// raceEnabled reports a build with the race detector, whose own allocations
// and slowdown a count of the program's allocations must not include.
const raceEnabled = true
