package kernel

// ElemFamilies names the elementwise families this host can run, the
// pure-Go one first.
func ElemFamilies() []string {
	var names []string
	for _, fam := range testFamilies() {
		names = append(names, fam.name)
	}
	return names
}

// ForceElemFamily pins the exported elementwise ops to the named family
// — the seam for tests outside the package, which cannot pass an isa —
// and returns the function that restores the host's own.
func ForceElemFamily(name string) (restore func()) {
	for _, fam := range testFamilies() {
		if fam.name == name {
			prev := elemISA
			elemISA = fam.isa
			return func() { elemISA = prev }
		}
	}
	panic("kernel: no elementwise family " + name + " on this host")
}
