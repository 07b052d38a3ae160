// Quickstart: generate a small coverage-guided syscall corpus, deploy it on
// a native kernel and on a partitioned 4-VM configuration of the same
// machine, and compare latency tails — the library's core loop in ~40 lines.
package main

import (
	"fmt"

	"ksa"
)

func main() {
	// 1. Generate a corpus (the Syzkaller-analog phase). Same seed, same
	// corpus, always.
	c, stats := ksa.GenerateCorpus(ksa.CorpusOptions{Seed: 7, TargetPrograms: 30})
	fmt.Printf("corpus: %d programs, %d call sites, %d kernel blocks covered\n\n",
		len(c.Programs), c.NumCalls(), stats.TotalBlocks)

	// 2. Deploy it on two environments of the same 16-core machine: one
	// shared kernel vs four 4-core VM kernels.
	machine := ksa.Machine{Cores: 16, MemGB: 8}
	opts := ksa.VarbenchOptions{Iterations: 10, Warmup: 2, Seed: 7}

	native := ksa.RunVarbench(
		ksa.EnvSpec{Kind: ksa.KindNative}.Build(ksa.NewEngine(), machine, 1), c, opts)
	vms := ksa.RunVarbench(
		ksa.EnvSpec{Kind: ksa.KindVMs, Units: 4}.Build(ksa.NewEngine(), machine, 1), c, opts)

	// 3. Compare: the shared kernel wins medians, the partitioned kernels
	// bound the tails — the paper's central trade-off.
	fmt.Println("cumulative % of call sites under each latency threshold:")
	fmt.Printf("%-22s %8s %8s %8s %8s %8s %8s\n", "", "1µs", "10µs", "100µs", "1ms", "10ms", ">10ms")
	show := func(label string, b ksa.Breakdown) {
		fmt.Printf("%-22s", label)
		for _, cell := range b.Row() {
			fmt.Printf(" %8s", cell)
		}
		fmt.Println()
	}
	show("native median", native.MedianBreakdown())
	show("4-VM median", vms.MedianBreakdown())
	show("native worst case", native.MaxBreakdown())
	show("4-VM worst case", vms.MaxBreakdown())
}
