package main

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestUnknownExperimentFails pins that an experiment id the command does not
// have — the removed fit harness ids among them — is an error naming the
// valid ones, raised before anything runs, instead of a run of nothing that
// exits 0.
func TestUnknownExperimentFails(t *testing.T) {
	for _, list := range []string{"fit", "shardfit", "distfit", "table3,nope", "all,fit", ""} {
		var out bytes.Buffer
		err := run([]string{"-experiment", list, "-scale", "0.01"}, &out)
		if err == nil {
			t.Fatalf("-experiment %q ran", list)
		}
		for _, want := range []string{"unknown experiment", "table3", "serving", "all"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("-experiment %q: error %q does not mention %q", list, err, want)
			}
		}
		if out.Len() != 0 {
			t.Fatalf("-experiment %q printed %q before failing", list, out.String())
		}
	}
}

// TestAllIsThePaperExperimentsAndServing pins what "all" expands to: every
// row of the table, and none of the fit harness's three.
func TestAllIsThePaperExperimentsAndServing(t *testing.T) {
	got, err := parseExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for id := range got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	want := []string{"ablation", "assumptions", "fig3", "fig4", "searchspace", "serving", "table3", "table5", "table6", "table8"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("all = %v, want %v", ids, want)
	}
	one, err := parseExperiments(" table5 , fig3")
	if err != nil || len(one) != 2 || !one["table5"] || !one["fig3"] {
		t.Fatalf("a two-id list parsed to %v, %v", one, err)
	}
}

// TestVersionFlag runs the command end to end on its cheapest path.
func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out); err != nil || !strings.Contains(out.String(), "safe") {
		t.Fatalf("-version: %q, %v", out.String(), err)
	}
}
