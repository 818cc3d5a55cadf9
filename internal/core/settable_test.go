package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSettableSurface pins the fields of Config, the values an embedder
// can set; internal/cluster's test of the same name pins the layers
// below. A new or deleted field is a change to
// testdata/settable_surface.golden, made on purpose.
func TestSettableSurface(t *testing.T) {
	typ := reflect.TypeOf(Config{})
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
