// The socket map is what everything downstream hangs off: a socket's ID
// is its position in (unit order × socket order), scheduled programs
// encode those IDs, and recorded bundle events name them. The files
// under testdata/describe/ pin Machine.Describe() — unit order, socket
// names, kinds and order, signal names — for the three widest router
// machines (one per RTU backend). They were written by the commit before
// internal/fu moved its sockets into one port table per unit.
package taco_test

import (
	"os"
	"path/filepath"
	"testing"

	"taco/internal/fu"
	"taco/internal/router"
	"taco/internal/rtable"
)

func TestDescribeGoldens(t *testing.T) {
	for _, kind := range rtable.PaperKinds {
		tr, err := router.NewTACO(fu.Config3Bus3FU(kind), rtable.New(kind), 4)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "describe", "3bus3fu-"+kind.String()+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Machine.Describe(); got != string(want) {
			t.Errorf("%s: socket map moved:\n--- got\n%s--- want\n%s", path, got, want)
		}
	}
}
