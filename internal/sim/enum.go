package sim

import (
	"fmt"
	"strings"
)

// The configuration enums here and in tcp, steer and core each keep one
// table of value names, indexed by value. String reads it and Set
// (flag.Value) searches it, so a value is spelled in one place whether
// it arrives on a command line or leaves in a report.

// EnumName returns names[v], or "invalid" for a value outside the
// table — which is how core.Build recognizes a bad enum.
func EnumName[E ~int](names []string, v E) string {
	if v < 0 || int(v) >= len(names) {
		return "invalid"
	}
	return names[v]
}

// SetEnum stores in *v the value s names, ignoring case. The first
// table holds the command-line spellings; a second may add the report
// spellings where they differ, so Set(String()) round-trips.
func SetEnum[E ~int](v *E, what, s string, names ...[]string) error {
	for _, tbl := range names {
		for i, n := range tbl {
			if strings.EqualFold(s, n) {
				*v = E(i)
				return nil
			}
		}
	}
	return fmt.Errorf("unknown %s %q (want %s)", what, s, strings.Join(names[0], ", "))
}
