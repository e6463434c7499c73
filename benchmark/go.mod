// The benchmark is a module of its own so that it builds from its own
// directory; the quarc/ path prefix lets it import quarc/internal/...
module quarc/benchmark

go 1.22

require quarc v0.0.0

replace quarc => ../
