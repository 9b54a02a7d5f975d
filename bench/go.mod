// The benchmark is a module of its own so the repository's build and test
// commands do not change; the module path sits under repro/ so that it may
// import repro/internal/..., and the replace points at the checkout.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
