// The benchmark harness is a module of its own so that it builds and
// vets apart from the library; the module path sits under the root
// module's so that it may import internal/... packages.
module github.com/omp4go/omp4go/benchmark

go 1.24

require github.com/omp4go/omp4go v0.0.0

replace github.com/omp4go/omp4go => ../
