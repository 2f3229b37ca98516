package dse

import (
	"bytes"
	"context"
	"os"
	"testing"

	"taco/internal/core"
	"taco/internal/rtable"
)

// TestLargeTableAllKindsGolden prices every backend, the binary trie
// included (LargeTableKinds leaves it out), through the scaled sweep
// with an update stream, and compares the JSON export byte for byte with
// testdata/largetable/sweep-1000-20000-churn150.json, written by
//
//	tacoexplore -sweep largetable -table-size 1000,20000 -churn 150 -json \
//	  -table-kind sequential,balanced-tree,cam,trie,multibit,tiled-tcam,compressed
//
// on the commit before table backends were registered in one place.
func TestLargeTableAllKindsGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/largetable/sweep-1000-20000-churn150.json")
	if err != nil {
		t.Fatal(err)
	}
	insts := LargeTableInstances(rtable.Kinds, []int{1000, 20000}, 150, core.PaperConstraints(), core.DefaultSimOptions())
	pts, err := Sweep(context.Background(), insts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, pts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("all-kinds large-table export differs from the golden (%d vs %d bytes)", got.Len(), len(want))
	}
}
