package nn

import "podnas/internal/kernel"

// engineState is the execution policy and scratch shared by every
// layer of one network. Two arenas, not one: forward caches (gates,
// cell states) must survive until Backward consumes them, so the
// forward arena resets at Graph.Forward and the backward arena at
// Graph.Backward. Arena memory is DIRTY: callers must fully overwrite
// what they Alloc (the poisoned-arena test enforces this discipline).
type engineState struct {
	// standalone marks a state owned by a single layer used outside a
	// Graph; the layer then recycles the arenas itself at each pass
	// (a Graph resets them once per Forward/Backward instead).
	standalone bool
	cfg        kernel.Config
	fwd        *kernel.Arena
	bwd        *kernel.Arena
}

func newEngineState() *engineState {
	return &engineState{fwd: kernel.NewArena(), bwd: kernel.NewArena()}
}

// engined is embedded by layers to share one engineState per network;
// a standalone layer (constructed outside NewGraph) lazily creates its
// own.
type engined struct{ es *engineState }

func (e *engined) state() *engineState {
	if e.es == nil {
		e.es = newEngineState()
		e.es.standalone = true
	}
	return e.es
}

// resetFwd and resetBwd recycle a standalone layer's arenas at pass
// boundaries; inside a Graph the graph does this once per pass instead.
func (es *engineState) resetFwd() {
	if es.standalone {
		es.fwd.Reset()
	}
}

func (es *engineState) resetBwd() {
	if es.standalone {
		es.bwd.Reset()
	}
}
