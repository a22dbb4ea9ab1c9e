// Package callshapes pins the call-graph shapes the purity pass
// leans on: method values and deferred calls create edges, while calls
// through function-typed struct fields (the engine's hook boundary) do
// not — from Step, exactly {Step, helper, cleanup} is reachable.
package callshapes

// Engine mirrors core.Config's hook shape.
type Engine struct {
	// OnTick is a hook field: calls through it have no static callee.
	OnTick func(int)
}

func (e *Engine) helper() int { return 1 }

func (e *Engine) cleanup() {}

// Step takes helper as a method value, defers cleanup, and invokes the
// OnTick hook through the field.
func (e *Engine) Step() int {
	f := e.helper
	defer e.cleanup()
	if e.OnTick != nil {
		e.OnTick(1)
	}
	return f()
}

// Tick has the hook's shape but is never referenced; without a static
// assignment the graph must not invent an edge to it.
func Tick(int) {}

// Orphan is referenced by nobody.
func Orphan() {}
