//go:build race

package core

// raceBuild reports a -race build, which runs the single-goroutine
// search batteries about ten times slower and checks nothing in them.
const raceBuild = true
