//go:build !race

package service

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
