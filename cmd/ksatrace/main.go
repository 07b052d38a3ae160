// Command ksatrace runs the varbench corpus with kernel tracing enabled
// and prints the blame report: which shared kernel structure — journal
// lock, mmap_sem, IPI bus, housekeeping stream, block device — each
// over-threshold call-site outlier spent its wall time on.
//
// Usage:
//
//	ksatrace [-env native|kvm|docker|lightvm|specialized] [-units N]
//	         [-scale default|quick] [-seed N] [-threshold dur]
//	         [-top N] [-csv]
//
// -env takes any environment kind; specialized deploys -units full-surface
// per-tenant kernels (the MultiK baseline, no profile).
//
// With -csv the full decomposition of every retained outlier is written
// to stdout as CSV (one row per record part) instead of the text report.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ksa"
)

func main() {
	envKind := flag.String("env", "native", "environment: "+ksa.EnvKindNames())
	units := flag.Int("units", 64, "number of kernels/containers (ignored for native)")
	scaleName := flag.String("scale", "default", "experiment scale: default or quick")
	seed := flag.Uint64("seed", 0, "override the scale's seed (unset = keep)")
	threshold := flag.Duration("threshold", time.Millisecond, "wall-time above which a call earns a blame record")
	top := flag.Int("top", 10, "worst records to list in the text report")
	csv := flag.Bool("csv", false, "write blame records as CSV to stdout instead of the text report")
	flag.Parse()

	var sc ksa.Scale
	switch *scaleName {
	case "default":
		sc = ksa.DefaultScale()
	case "quick":
		sc = ksa.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "ksatrace: unknown -scale %q\n", *scaleName)
		os.Exit(2)
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if seedSet {
		if *seed == 0 {
			fmt.Fprintln(os.Stderr, "ksatrace: -seed 0 is the 'keep the scale's default' sentinel; pass a nonzero seed (or omit the flag)")
			os.Exit(2)
		}
		sc.Seed = *seed
	}

	kind, ok := ksa.ParseEnvKind(*envKind)
	if !ok {
		fmt.Fprintf(os.Stderr, "ksatrace: unknown -env %q (want one of %s)\n", *envKind, ksa.EnvKindNames())
		os.Exit(2)
	}
	if kind != ksa.KindNative && (*units <= 0 || ksa.PaperMachine.Cores%*units != 0) {
		fmt.Fprintf(os.Stderr, "ksatrace: -units %d must evenly partition the %d-core machine\n",
			*units, ksa.PaperMachine.Cores)
		os.Exit(2)
	}

	res := ksa.RunBlame(sc, kind, *units, ksa.Time(threshold.Nanoseconds()))
	if *csv {
		fmt.Print(res.CSV())
		return
	}
	fmt.Printf("Blame report: %s\n\n", res.Env)
	fmt.Print(ksa.RenderBlame(res.Res, *top))
}
