// The benchmark is a module of its own so that it builds from its own
// directory; the module path sits under podnas/ so it may import the
// internal packages of the repository it measures.
module podnas/benchmark

go 1.24

require podnas v0.0.0

replace podnas => ../
