package wcet

// SolverState is the serialisable solver state of one Engine: function
// name → solve-input signature → solution. Treated as immutable once built.
type SolverState struct {
	Funcs map[string]map[string]FuncSolution
}

// ImportState merges previously recorded solver state (typically loaded
// from the artifact store by a cold process) into the engine. Entries for
// unknown functions or with mismatched vector lengths are ignored — the
// store key ties state to the exact program and engine configuration, so
// mismatches only arise from foreign or corrupt payloads. Returns the
// number of solutions imported.
func (c *Engine) ImportState(st *SolverState) int {
	if st == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for name, sols := range st.Funcs {
		cf := c.funcs[name]
		if cf == nil {
			continue
		}
		for sig, fs := range sols {
			if len(fs.Blocks) != len(cf.blocks) || len(fs.Edges) != len(cf.ip.edges) || cf.sols[sig] != nil {
				continue
			}
			putCapped(cf.sols, sig, &fs)
			n++
		}
	}
	return n
}

// ExportState snapshots the engine's recorded solver state. The snapshot
// shares the (immutable) solution vectors with the engine.
func (c *Engine) ExportState() *SolverState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exportLocked()
}

// ExportStateIfDirty snapshots the solver state when solutions were
// recorded since the last export, and marks it clean. Used to persist state
// after an analysis without rewriting unchanged store entries.
func (c *Engine) ExportStateIfDirty() (*SolverState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stateDirty {
		return nil, false
	}
	c.stateDirty = false
	return c.exportLocked(), true
}

func (c *Engine) exportLocked() *SolverState {
	st := &SolverState{Funcs: make(map[string]map[string]FuncSolution, len(c.funcs))}
	for name, cf := range c.funcs {
		if len(cf.sols) == 0 {
			continue
		}
		m := make(map[string]FuncSolution, len(cf.sols))
		for sig, fs := range cf.sols {
			m[sig] = *fs
		}
		st.Funcs[name] = m
	}
	return st
}
