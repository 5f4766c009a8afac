package protocol

import (
	"fmt"
	"strings"
)

// No binary parses a mode name or asks for the default rules by value:
// the CLI selects protocols by name through Lookup.

// modeNames joins all mode names for error messages.
func modeNames() string {
	names := make([]string, 0, NumModes)
	for _, m := range AllModes {
		names = append(names, m.String())
	}
	return strings.Join(names, ", ")
}

// ParseMode converts a mode name back to its value.
func ParseMode(s string) (Mode, error) {
	for _, m := range AllModes {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("soc: unknown coherence mode %q (valid: %s)", s, modeNames())
}

// Default returns the default protocol's rules.
func Default() Rules {
	r, err := Lookup(DefaultName)
	if err != nil {
		panic(err)
	}
	return r
}
