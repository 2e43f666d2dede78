// Command flashvet statically enforces the simulator's determinism and
// safety invariants: no wall-clock time or host state, no global or
// constant-seeded RNGs, no map-iteration order in output, integer-only
// fleet merges, no discarded storage-mutation errors, no blocking under a
// held lock. Run it over package patterns. See DESIGN.md §10.
//
// Usage:
//
//	flashvet ./...
//	flashvet -locksafe ./...
//	flashvet -waivers ./...
//
// Exit status: 0 clean, 1 internal/usage error, 2 findings.
package main

import (
	"os"

	"flashwear/internal/analysis/flashvet"
)

func main() {
	os.Exit(flashvet.Main(os.Args[1:]))
}
