// The socket map is what everything downstream hangs off: a socket's ID
// is its position in (unit order × socket order), scheduled programs
// encode those IDs, and recorded bundle events name them. The files
// under testdata/describe/ pin Machine.Describe() — unit order, socket
// names, kinds and order, signal names — for the nine Table 1 router
// machines, <config>-<kind>.txt. The three 3bus3fu files were written by
// the commit before internal/fu moved its sockets into one port table
// per unit; the six 1bus1fu and 3bus1fu files by the last commit that
// still carried the VHDL generator, whose top levels gave each unit the
// socket base these files number it at.
package taco_test

import (
	"os"
	"path/filepath"
	"testing"

	"taco/internal/cliutil"
	"taco/internal/router"
	"taco/internal/rtable"
)

func TestDescribeGoldens(t *testing.T) {
	for _, kind := range rtable.PaperKinds {
		for _, config := range []string{"1bus1fu", "3bus1fu", "3bus3fu"} {
			cfg, err := cliutil.ConfigByName(config, kind)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := router.NewTACO(cfg, rtable.New(kind), 4)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "describe", config+"-"+kind.String()+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Machine.Describe(); got != string(want) {
				t.Errorf("%s: socket map moved:\n--- got\n%s--- want\n%s", path, got, want)
			}
		}
	}
}
