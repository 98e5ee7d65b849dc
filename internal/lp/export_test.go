package lp

// SetIterationCap lowers the per-phase pivot cap for a test and returns a
// function restoring it, so tests of the packages above lp can drive a
// solve into the cap.
func SetIterationCap(n int) (restore func()) {
	old := iterationCap
	iterationCap = n
	return func() { iterationCap = old }
}
