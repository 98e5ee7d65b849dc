package ilp

// Search is the work one branch & bound search did.
type Search = search

// SolveSearch is SolveOpts reporting the work of its search.
var SolveSearch = solve

// SetSolveHook shows every program SolveOpts is asked to solve to f, until
// the returned function removes the hook.
func SetSolveHook(f func(*Problem, Options)) (restore func()) {
	solveHook = f
	return func() { solveHook = nil }
}
