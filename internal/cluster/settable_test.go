package cluster

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"simdb/internal/hyracks"
	"simdb/internal/optimizer"
)

// TestSettableSurface pins every independently settable value of the
// engine below core.Config: the fields of the cluster configuration, the
// optimizer options, the job topology, the plan-cache key and the job
// request, and the keys `set` accepts. A new knob, or a deleted one, is
// a change to testdata/settable_surface.golden, made on purpose.
func TestSettableSurface(t *testing.T) {
	var got []string
	for _, v := range []any{Config{}, optimizer.Options{}, hyracks.Topology{}, planKey{}, jobReq{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, fmt.Sprintf("%s.%s %s", typ, typ.Field(i).Name, typ.Field(i).Type))
		}
	}
	var keys []string
	for k := range sessionSettings {
		keys = append(keys, "set "+k)
	}
	sort.Strings(keys)
	got = append(got, keys...)

	golden, err := os.ReadFile("testdata/settable_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if text := strings.Join(got, "\n") + "\n"; text != string(golden) {
		t.Errorf("settable surface differs from testdata/settable_surface.golden; it is now:\n%s", text)
	}
}
