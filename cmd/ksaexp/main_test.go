package main

import (
	"slices"
	"strings"
	"testing"

	"ksa"
)

func names(exps []ksa.Experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.Name)
	}
	return out
}

// Unknown names are errors that list the valid ones; before, a typo in a
// list silently ran the rest.
func TestSelectRejectsUnknownNames(t *testing.T) {
	for _, list := range []string{"table1,tabel3", "bogus", "all,table9"} {
		_, err := selectExperiments(list, false)
		if err == nil {
			t.Errorf("-exp %q accepted", list)
			continue
		}
		for _, want := range []string{"all", "blame", "sweep", "table1", "isolation"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-exp %q: error %q does not list %q", list, err, want)
			}
		}
	}
	if _, err := selectExperiments("", false); err == nil {
		t.Error("empty -exp accepted")
	}
	if _, err := selectExperiments("sweep,table1", false); err == nil {
		t.Error("sweep combined with another experiment accepted")
	}
	if _, err := selectExperiments("sweep", true); err == nil {
		t.Error("sweep combined with -trace accepted")
	}
}

// The selection is the one list both the local loop and -remote run: the
// same experiments, in table order whatever order -exp names them in.
func TestSelectRunsInTableOrder(t *testing.T) {
	var paper, all []string
	for _, e := range ksa.Experiments() {
		all = append(all, e.Name)
		if e.InAll {
			paper = append(paper, e.Name)
		}
	}
	reversed := slices.Clone(all)
	slices.Reverse(reversed)
	cases := []struct {
		list  string
		trace bool
		want  []string
		blame bool
	}{
		{list: "isolation,interference", want: []string{"interference", "isolation"}},
		{list: "interference,isolation", want: []string{"interference", "isolation"}},
		{list: "all", want: paper},
		{list: "all", trace: true, want: paper, blame: true},
		{list: "density,all", want: append(slices.Clone(paper), "density")},
		{list: "blame", blame: true},
		{list: " fig3 , table1 ,", want: []string{"table1", "fig3"}},
		{list: strings.Join(reversed, ","), want: all},
	}
	for _, c := range cases {
		sel, err := selectExperiments(c.list, c.trace)
		if err != nil {
			t.Fatalf("-exp %q: %v", c.list, err)
		}
		if got := names(sel.exps); !slices.Equal(got, c.want) || sel.blame != c.blame || sel.sweep {
			t.Errorf("-exp %q trace=%v: got %v blame=%v sweep=%v, want %v blame=%v",
				c.list, c.trace, got, sel.blame, sel.sweep, c.want, c.blame)
		}
		// Local and remote run the same experiments in the same order;
		// blame is local-only and runs last.
		local := names(sel.local())
		if c.blame {
			if len(local) == 0 || local[len(local)-1] != "blame" {
				t.Errorf("-exp %q trace=%v: local runs %v, want blame last", c.list, c.trace, local)
				continue
			}
			local = local[:len(local)-1]
		}
		var remote []string
		for _, spec := range sel.remote("quick", 0, "mixed") {
			remote = append(remote, spec.Exp)
			if (spec.Fault != "") != (spec.Exp == "interference") {
				t.Errorf("-exp %q: remote %s job has fault %q", c.list, spec.Exp, spec.Fault)
			}
		}
		if !slices.Equal(local, c.want) || !slices.Equal(remote, c.want) {
			t.Errorf("-exp %q: local runs %v, remote jobs %v, want %v", c.list, local, remote, c.want)
		}
	}
	if sel, err := selectExperiments("sweep", false); err != nil || !sel.sweep || len(sel.exps) != 0 {
		t.Errorf("-exp sweep: %+v, %v", sel, err)
	}
}
