package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"ksa/internal/fault"
)

// Result is a finished experiment's output. Its Render is the canonical
// text: two bit-identical runs render to identical bytes, so a daemon job
// and a local run can be diffed. A result with a machine-readable series
// also has a CSV() string method.
type Result interface {
	Render() string
}

// Experiment is one entry of the experiment table: the paper's tables and
// figures plus the extensions beyond them.
type Experiment struct {
	Name string
	// Desc is the one-line summary ksaexp's usage text shows.
	Desc string
	// InAll marks the paper's own study: the set "all" selects. The
	// extensions run only when named.
	InAll bool
	// Run executes the experiment at the given scale. faultName selects
	// the interference preset (default "mixed"); every other experiment
	// ignores it. Cancellation follows the fan-out contract: no new cell
	// starts after ctx is done, in-flight cells drain.
	Run func(ctx context.Context, sc Scale, faultName string) (Result, error)
}

// experiments is the table, in canonical order: ksaexp's usage text, its
// local and remote selection, and the daemon's job validator all derive
// from it.
var experiments = []Experiment{
	{Name: "table1", Desc: "Table 1: the VM configurations partitioning the 64-core machine", InAll: true,
		Run: func(context.Context, Scale, string) (Result, error) {
			return rendered(VMConfigTable().String()), nil
		}},
	{Name: "table2", Desc: "Table 2: native vs VMs vs containers, decade breakdowns", InAll: true,
		Run: typed(RunTable2Context)},
	{Name: "fig2", Desc: "Figure 2: per-category p99 violins vs VM count", InAll: true,
		Run: typed(RunFigure2Context)},
	{Name: "table3", Desc: "Table 3: worst case vs container count", InAll: true,
		Run: typed(RunTable3Context)},
	{Name: "fig3", Desc: "Figure 3: single-node tailbench tail latency", InAll: true,
		Run: typed(RunFigure3Context)},
	{Name: "fig4", Desc: "Figure 4: 64-node BSP cluster runtimes", InAll: true,
		Run: typed(RunFigure4Context)},
	{Name: "lightvm", Desc: "extension: Firecracker/Kata-class microVMs vs Docker vs KVM",
		Run: typed(RunLightVMExtensionContext)},
	{Name: "ablation", Desc: "extension: each interference mechanism's share of the shared kernel's tail",
		Run: typed(RunAblationContext)},
	{Name: "interference", Desc: "extension: a fault plan dosed across surface-area partitions",
		Run: runInterference},
	{Name: "density", Desc: "extension: serverless cold-start churn of ephemeral tenants",
		Run: typed(RunDensityContext)},
	{Name: "specialize", Desc: "extension: profile-guided per-tenant reduced kernels",
		Run: typed(RunSpecializeContext)},
	{Name: "isolation", Desc: "extension: tenant×lock contention graph and isolation score",
		Run: typed(RunIsolationContext)},
}

// rendered is a Result that is text from the start (Table 1 runs nothing).
type rendered string

func (r rendered) Render() string { return string(r) }

// typed adapts a typed experiment runner to the table's signature.
func typed[R Result](run func(context.Context, Scale) (R, error)) func(context.Context, Scale, string) (Result, error) {
	return func(ctx context.Context, sc Scale, _ string) (Result, error) {
		return run(ctx, sc)
	}
}

func runInterference(ctx context.Context, sc Scale, faultName string) (Result, error) {
	if faultName == "" {
		faultName = "mixed"
	}
	plan, ok := fault.Preset(faultName)
	if !ok {
		return nil, fmt.Errorf("unknown fault preset %q", faultName)
	}
	return RunInterferenceContext(ctx, sc, plan)
}

// Experiments returns the experiment table in canonical order.
func Experiments() []Experiment { return slices.Clone(experiments) }

// LookupExperiment returns the table entry with the given name.
func LookupExperiment(name string) (Experiment, bool) {
	i := slices.IndexFunc(experiments, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		return Experiment{}, false
	}
	return experiments[i], true
}

// ExperimentNames lists the table's names in canonical order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// RunExperimentContext runs the named experiment (see ExperimentNames) and
// returns its rendered output.
func RunExperimentContext(ctx context.Context, sc Scale, name, faultName string) (string, error) {
	e, ok := LookupExperiment(name)
	if !ok {
		return "", fmt.Errorf("unknown experiment %q (want one of %s)",
			name, strings.Join(ExperimentNames(), ", "))
	}
	r, err := e.Run(ctx, sc, faultName)
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
