//go:build race

package vnet

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
