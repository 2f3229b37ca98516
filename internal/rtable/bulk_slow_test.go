//go:build slow

package rtable_test

import (
	"testing"

	"taco/internal/rtable"
)

// TestTreeBulkEqualsInsertLoopLarge is the 10^4-route leg of
// TestTreeBulkEqualsInsertLoop, whose per-route reference loop is too
// slow for the default suite.
func TestTreeBulkEqualsInsertLoopLarge(t *testing.T) {
	for _, c := range flatCases() {
		if len(c.rs) > treeLoopLimit {
			t.Run(c.name, func(t *testing.T) {
				checkFlatBulkEqualsLoop(t, rtable.BalancedTree, c.preload, c.rs, 500)
			})
		}
	}
}
