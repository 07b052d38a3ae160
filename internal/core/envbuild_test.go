package core

import (
	"testing"

	"ksa/internal/platform"
	"ksa/internal/sim"
)

// TestEnvDigestsPinned pins one quick-scale sweep cell per environment
// kind on an 8-core machine. The digests were recorded before environment
// construction was folded into platform.Build; a changed kernel name, seed
// salt, semaphore or partition order changes them.
func TestEnvDigestsPinned(t *testing.T) {
	for _, tc := range []struct{ env, digest string }{
		{"native", "c1ca15e0d68a111d76e065e756a01fa840893f89e42ef2de24b3cef4d7dab1d9"},
		{"kvm-4", "ebe5afa976c949c0669cd72787f75b88d44915ff5c20ba15b3fd4311d0ebba06"},
		{"lightvm-4", "27e729e24f1192269bc423cd47bd36945a6fb87fafcb5e917b4a6fba5300d6fa"},
		{"docker-4", "cb1c3ca1d441a8a6dc42ac821ee9cd35c21b602758f4be5aaa042536ea188481"},
		{"specialized-4", "386e23f134959642321fe3e26e05c8b7d0b319ca7ffc7498cc042981c82149bd"},
	} {
		spec, err := ParseEnvSpec(tc.env)
		if err != nil {
			t.Fatal(err)
		}
		res := RunSweep(SweepOptions{
			Scale:   QuickScale(),
			Machine: platform.Machine{Cores: 8, MemGB: 4},
			Envs:    []EnvSpec{spec},
		})
		if got := res.Digest(); got != tc.digest {
			t.Errorf("%s: digest %s, want %s", tc.env, got, tc.digest)
		}
	}
}

// An unknown kind is a programming error, not a request for native.
func TestEnvSpecBuildRejectsUnknownKind(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("EnvSpec.Build accepted kind(99)")
		}
	}()
	EnvSpec{Kind: platform.EnvKind(99), Units: 4}.Build(sim.NewEngine(), platform.PaperMachine, 1)
}
