// Stub of the production mapper package for txncheck's Begin/Commit/Abort
// tracking.
package mapper

type State struct{ depth int }

func (st *State) Begin(tasks ...int) { st.depth++ }

func (st *State) Commit() { st.depth-- }

func (st *State) Abort() { st.depth-- }
