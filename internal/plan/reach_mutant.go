//go:build reach_mutant

package plan

// ReachMutant, in this test-only build (tag reach_mutant), is a function
// no binary links and scripts/reach.allow does not name: `make mutants`
// runs `go run ./scripts/reach -tags reach_mutant`, which must fail and
// name it.
func ReachMutant() {}
