package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"simdb/internal/cluster"
)

// TestSettableSurface pins the fields of Config, the values an embedder
// can set; internal/cluster's test of the same name pins the layers
// below. Config is cluster.Config itself, not a copy of its fields. A
// new or deleted field is a change to testdata/settable_surface.golden,
// made on purpose.
func TestSettableSurface(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	if typ != reflect.TypeOf(cluster.Config{}) {
		t.Fatalf("core.Config is %v, not cluster.Config", typ)
	}
	var got strings.Builder
	for i := 0; i < typ.NumField(); i++ {
		fmt.Fprintf(&got, "%s.%s %s\n", typ, typ.Field(i).Name, typ.Field(i).Type)
	}
	golden, err := os.ReadFile("testdata/settable_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(golden) {
		t.Errorf("settable surface differs from testdata/settable_surface.golden; it is now:\n%s", got.String())
	}
}
