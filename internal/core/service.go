// Service-facing helpers: the pieces a long-running control plane (the
// ksad daemon) needs from the experiment layer — parsing environment specs
// received over the wire, rendering and fingerprinting sweep results,
// and probing whether a whole sweep is already answerable from the result
// store. The experiment table the daemon dispatches by name is in
// registry.go.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"ksa/internal/corpus"
	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/resultcache/codec"
)

// ParseEnvSpec parses the canonical environment-spec string form —
// "native", "kvm-8", "docker-64", "lightvm-16", "specialized-8" — the
// inverse of EnvSpec.String. The MultiK-style orchestration form
// "specialized:8" is accepted as an alias. Unit counts must be positive;
// native takes none.
func ParseEnvSpec(s string) (EnvSpec, error) {
	// "specialized:N" is the per-tenant orchestration spelling; normalize
	// it to the canonical dash form before the generic cut.
	if units, ok := strings.CutPrefix(s, "specialized:"); ok {
		s = "specialized-" + units
	}
	name, units, hasUnits := strings.Cut(s, "-")
	kind, ok := platform.ParseKind(name)
	switch {
	case !ok:
		return EnvSpec{}, fmt.Errorf("unknown environment %q (want one of %s; all but native take a unit count, e.g. kvm-8)",
			s, platform.KindNames())
	case kind == platform.KindNative && hasUnits:
		return EnvSpec{}, fmt.Errorf("environment %q: native takes no unit count", s)
	case kind == platform.KindNative:
		return EnvSpec{Kind: kind}, nil
	case !hasUnits:
		return EnvSpec{}, fmt.Errorf("environment %q needs a unit count (e.g. %q)", s, s+"-8")
	}
	n, err := strconv.Atoi(units)
	if err != nil || n <= 0 {
		return EnvSpec{}, fmt.Errorf("environment %q: bad unit count %q", s, units)
	}
	return EnvSpec{Kind: kind, Units: n}, nil
}

// ParseEnvSpecs parses a list of spec strings, rejecting duplicates (two
// identical specs would collide on job keys).
func ParseEnvSpecs(specs []string) ([]EnvSpec, error) {
	seen := map[string]bool{}
	out := make([]EnvSpec, 0, len(specs))
	for _, s := range specs {
		e, err := ParseEnvSpec(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if seen[e.String()] {
			return nil, fmt.Errorf("duplicate environment %q", e)
		}
		seen[e.String()] = true
		out = append(out, e)
	}
	return out, nil
}

// Render formats the sweep as one pooled-latency summary row per cell, in
// job-key order. The rendering is canonical: two bit-identical sweeps
// render to identical bytes, so remote clients can diff it against a
// local run.
func (r SweepResult) Render() string {
	t := &report.Table{
		Title:   fmt.Sprintf("Sweep: %d cell(s), pooled call latency (µs)", len(r.Runs)),
		Headers: []string{"cell", "seed", "sites", "p50", "p99", "max"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, run := range r.Runs {
		if run.Res == nil {
			continue
		}
		pool := pooledLatencies(run.Res)
		t.AddRow(run.Key(), fmt.Sprintf("%#016x", run.Seed),
			fmt.Sprintf("%d", len(run.Res.Sites)),
			f(pool.Median()), f(pool.P99()), f(pool.Max()))
	}
	return t.String()
}

// Digest fingerprints the sweep's complete numeric content: the SHA-256
// over every cell's canonical binary encoding, in job-key order. Two
// sweeps are byte-identical iff their digests match — this is the value
// the daemon reports so N concurrent clients (or a remote and a local
// run) can assert bit-identity without shipping payloads around.
func (r SweepResult) Digest() string {
	h := sha256.New()
	for _, run := range r.Runs {
		fmt.Fprintf(h, "cell=%s seed=%#016x\n", run.Key(), run.Seed)
		if run.Res != nil {
			h.Write(codec.EncodeResult(run.Res))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SweepCached reports whether every cell of the sweep already has an
// entry in the result store — the fast-path probe a service uses to
// answer fully warmed jobs without occupying its worker pool. It returns
// the corpus it generated (pass it back via SweepOptions.Corpus so the
// serving run does not regenerate it). The probe uses existence checks
// only and touches no counters; a corrupt entry discovered later simply
// recomputes through the normal path. Always false for traced or
// uncached sweeps.
func SweepCached(o SweepOptions) (*corpus.Corpus, bool) {
	cache := o.Scale.Cache
	if cache == nil || o.Trace {
		return o.Corpus, false
	}
	p := PlanSweep(o)
	for _, cell := range p.Cells {
		if !cache.Contains(p.CacheKey(cell)) {
			return p.Opts.Corpus, false
		}
	}
	return p.Opts.Corpus, true
}
