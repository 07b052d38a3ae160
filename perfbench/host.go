package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"

	"ksa/internal/sim"
)

// host is the record printed with every run, so figures taken on different
// machines can be told apart and ns-scale ones normalised.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	OS         string  `json:"os"`
	EngineNS   float64 `json:"calib_engine_ns_per_event"`
}

func hostRecord() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		EngineNS:   calibrate(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate times the public sim.Engine schedule-and-run loop: 64 chains
// of self-rescheduling events, 2^18 events in all. It returns the median
// ns per event over five repetitions, the host-speed figure ns-scale
// metrics can be divided by.
func calibrate() float64 {
	const chains, total = 64, 1 << 18
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		eng := sim.NewEngine()
		left := total
		var step func()
		step = func() {
			if left--; left >= chains {
				eng.After(sim.Time(1+left%7), step)
			}
		}
		for i := 0; i < chains; i++ {
			eng.At(sim.Time(i), step)
		}
		t0 := time.Now()
		eng.Run()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(eng.Executed()))
	}
	return median(xs)
}
