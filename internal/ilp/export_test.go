package ilp

// SolveNodes is SolveOpts reporting the branch & bound nodes it explored.
var SolveNodes = solve

// SetSolveHook shows every program SolveOpts is asked to solve to f, until
// the returned function removes the hook.
func SetSolveHook(f func(*Problem, Options)) (restore func()) {
	solveHook = f
	return func() { solveHook = nil }
}
