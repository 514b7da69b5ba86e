package kernel

// Arena is a slab bump allocator for hot-loop scratch: Alloc hands out
// slices from growing float64 slabs, and Reset recycles every slab at
// once without freeing. A training step that allocates all of its
// activation and gradient buffers from two arenas (reset at each
// Forward/Backward) reaches steady state with zero per-step garbage.
//
// Alloc returns dirty memory — callers must fully overwrite it (GEMM
// with accumulate=false, copy, the fused LSTM sweeps) or use AllocZero.
// nn's poisoned-arena test enforces this discipline: training on arenas
// pre-filled with NaN must match training on fresh ones bit for bit.
//
// An Arena is single-goroutine; parallel kernel workers use their own
// pooled scratch, not the caller's arena.
type Arena struct {
	slabs [][]float64
	cur   int // active slab index
	off   int // bump offset within the active slab
}

// arenaMinSlab is the smallest slab (floats); slabs double as the
// high-water mark grows so steady state is a handful of slabs.
const arenaMinSlab = 1 << 14

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Alloc returns an n-float slice of uninitialized (dirty) memory valid
// until the next Reset.
//
//podnas:hotpath
func (a *Arena) Alloc(n int) []float64 {
	if n < 0 {
		panic("kernel: Arena.Alloc negative size")
	}
	for a.cur < len(a.slabs) {
		slab := a.slabs[a.cur]
		if a.off+n <= len(slab) {
			s := slab[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
		a.cur++
		a.off = 0
	}
	size := arenaMinSlab
	if len(a.slabs) > 0 {
		size = 2 * len(a.slabs[len(a.slabs)-1])
	}
	if size < n {
		size = n
	}
	a.slabs = append(a.slabs, make([]float64, size)) //podnas:allow hotalloc slab growth is amortized; slabs are reused across Resets
	a.cur = len(a.slabs) - 1
	a.off = n
	return a.slabs[a.cur][:n:n]
}

// AllocZero is Alloc with the returned slice cleared.
//
//podnas:hotpath
func (a *Arena) AllocZero(n int) []float64 {
	s := a.Alloc(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// Reset recycles every slab; previously returned slices become invalid
// (their contents may be overwritten by later Allocs).
//
//podnas:hotpath
func (a *Arena) Reset() {
	a.cur = 0
	a.off = 0
}
