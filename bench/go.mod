// The benchmark is a module of its own so that it builds from its own
// directory and nothing under ./... of the simulator changes when it is
// added. The module path keeps the qsmpi/ prefix, which is what lets it
// import qsmpi/internal/...; the replace points at the tree it measures.
// The go line is the container's toolchain, not the simulator's 1.22:
// ROADMAP 2c raises the simulator's line, and a main module may not
// trail a dependency.
module qsmpi/bench

go 1.24

require qsmpi v0.0.0

replace qsmpi => ../
