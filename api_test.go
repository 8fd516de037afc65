package f90y_test

import (
	"reflect"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
)

// TestOneRunEntryPointPerLayer is the tripwire against the Run*/Exec*
// ladders growing back: each layer exports exactly one ctx-aware run
// method, and a new convenience variant (RunObs, RunCtl, ...) fails
// here — add a parameter or a Control field instead. The machine-level
// survivor is still called RunCtx only because bench/ pins that name.
func TestOneRunEntryPointPerLayer(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(&f90y.Compilation{}), "Run"},
		{reflect.TypeOf(&cm2.Machine{}), "RunCtx"},
		{reflect.TypeOf(&cm5.Machine{}), "RunCtx"},
		{reflect.TypeOf(&cm2.Target{}), "Run"},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			if name := c.typ.Method(i).Name; strings.HasPrefix(name, "Run") {
				got = append(got, name)
			}
		}
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%v exports Run* methods %v, want exactly [%s]", c.typ, got, c.want)
		}
	}
}
