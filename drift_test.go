package ksa_test

import (
	"os"
	"strings"
	"testing"

	"ksa"
)

// ksaexp's -exp usage and selection, and the daemon's JobSpec validator,
// all derive from the experiment table (ksa.Experiments), so the compiler
// keeps them in step. Two mirrors it cannot check remain: the README's
// experiment listings, and the validator accepting exactly the table's
// names. This guard fails when either drifts from the table.
func TestExperimentSurfacesStayInSync(t *testing.T) {
	exps := ksa.Experiments()
	if len(exps) == 0 {
		t.Fatal("no experiments registered")
	}

	// Root-package tests run with the repo root as cwd.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		if !strings.Contains(string(readme), e.Name) {
			t.Errorf("experiment %q missing from README.md", e.Name)
		}
		spec := ksa.JobSpec{Type: "experiment", Exp: e.Name}
		if err := spec.Validate(); err != nil {
			t.Errorf("daemon rejects experiment %q: %v", e.Name, err)
		}
	}

	// The validator must reject what the table doesn't list — including
	// the CLI-only runs.
	for _, name := range []string{"", "no-such-experiment", "all", "blame", "sweep"} {
		spec := ksa.JobSpec{Type: "experiment", Exp: name}
		if err := spec.Validate(); err == nil {
			t.Errorf("daemon accepted experiment %q, which is not in the table", name)
		}
	}
}

// Every environment-spec string form the daemon documents must parse, and
// the specialized orchestration alias must normalize to the canonical form.
func TestEnvSpecSurfacesStayInSync(t *testing.T) {
	spec := ksa.JobSpec{Type: "sweep",
		Envs: []string{"native", "kvm-8", "docker-64", "lightvm-16", "specialized-8"}}
	if err := spec.Validate(); err != nil {
		t.Fatalf("documented env specs rejected: %v", err)
	}
	alias := ksa.JobSpec{Type: "sweep", Envs: []string{"specialized:8"}}
	if err := alias.Validate(); err != nil {
		t.Fatalf("specialized:N alias rejected: %v", err)
	}
	// The alias and the canonical form are the same spec, so listing both
	// is a duplicate.
	dup := ksa.JobSpec{Type: "sweep", Envs: []string{"specialized-8", "specialized:8"}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate specialized spec (alias + canonical) accepted")
	}
}
