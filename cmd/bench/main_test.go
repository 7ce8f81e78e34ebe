package main

import (
	"strings"
	"testing"

	"disqo/internal/strategy"
)

// TestParseStrategies: -strategies is checked once, before any
// experiment runs — the worker sweep too — and an unknown name is an
// error naming every strategy there is.
func TestParseStrategies(t *testing.T) {
	got, err := parseStrategies(" canonical, unnested ,,s1")
	if err != nil || len(got) != 3 || got[0] != "canonical" || got[1] != "unnested" || got[2] != "s1" {
		t.Fatalf("parseStrategies = %v, %v; want [canonical unnested s1]", got, err)
	}
	if got, err := parseStrategies(""); err != nil || got != nil {
		t.Fatalf("no -strategies = %v, %v; want none, the harness's default", got, err)
	}
	_, err = parseStrategies("unnested,bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("parseStrategies(unnested,bogus) = %v, want an error naming bogus", err)
	}
	for _, row := range strategy.Rows() {
		if !strings.Contains(err.Error(), row.Name) {
			t.Errorf("error %q does not name %s", err, row.Name)
		}
	}
}
