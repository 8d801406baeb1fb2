package main

import (
	"strings"
	"testing"
)

func TestSelectionRejectsUnknownNames(t *testing.T) {
	names := []string{"table2", "table6", "turnaround"}
	for _, tc := range []struct {
		only    string
		want    []string
		badName string // non-empty: the error must name it
	}{
		{only: "", want: nil},
		{only: "table2", want: []string{"table2"}},
		{only: " Table6 ,turnaround", want: []string{"table6", "turnaround"}},
		{only: "tabel3", badName: "tabel3"},
		{only: "table2,serve", badName: "serve"},
		{only: "table2,", badName: `""`},
	} {
		got, err := selection(tc.only, names)
		if tc.badName != "" {
			if err == nil {
				t.Fatalf("selection(%q) accepted an unknown name", tc.only)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.badName) || !strings.Contains(msg, strings.Join(names, ", ")) {
				t.Fatalf("selection(%q) error %q must name %s and list the valid names", tc.only, msg, tc.badName)
			}
			continue
		}
		if err != nil {
			t.Fatalf("selection(%q): %v", tc.only, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("selection(%q) = %v, want %v", tc.only, got, tc.want)
		}
		for _, n := range tc.want {
			if !got[n] {
				t.Fatalf("selection(%q) = %v, missing %s", tc.only, got, n)
			}
		}
	}
}
