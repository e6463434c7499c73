//go:build race

package service

// raceBuild reports a -race build, whose detector allocates on the
// channel hand-offs between the handler and a worker, so a cold
// request's allocation count there measures the detector.
const raceBuild = true
