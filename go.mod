module qsmpi

// Zero third-party requirements by design: the simulator must build
// hermetically offline. The qsmpilint analyzer suite (internal/lint)
// would normally pin golang.org/x/tools for go/analysis; instead it
// carries a small in-repo mirror of that API plus a `go list -export`
// package loader (internal/lint/analysis, internal/lint/driver), so the
// module graph stays empty. See DESIGN.md §9.

go 1.24
