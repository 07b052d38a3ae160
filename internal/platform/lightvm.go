package platform

import (
	"ksa/internal/kernel"
	"ksa/internal/sim"
)

// LightVirtModel returns the lightweight hypervisor's overhead model: the
// same isolation structure as DefaultVirtModel (private guest kernel,
// shared host device) with a much smaller tax — a minimal VMM means fewer
// and cheaper exits, a slimmer host stack means less residency steal, and a
// leaner paravirtual block path relays faster.
func LightVirtModel(host *sim.Semaphore) *kernel.VirtModel {
	return &kernel.VirtModel{
		PerTaskOverhead: 150 * sim.Nanosecond,
		ComputeDilation: 1.12,
		ExitCost:        sim.FromMicros(0.7),
		HostBlockQueue:  host,
		VirtioRelay:     sim.FromMicros(9),
		HostNoiseGap:    sim.FromMillis(4.5),
		HostNoiseMin:    sim.FromMicros(25),
		HostNoiseMax:    sim.FromMicros(220),
		HostNoiseAlpha:  2.0,
	}
}
