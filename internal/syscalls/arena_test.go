package syscalls

import (
	"slices"
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// blockLog records coverage hits in order.
type blockLog struct{ blocks []uint32 }

func (b *blockLog) Hit(block uint32) { b.blocks = append(b.blocks, block) }

// arenaWorld is one kernel and process that a sequence of compilations
// runs against; two worlds built from the same seed start identical.
func arenaWorld() (*kernel.Kernel, *Proc) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "a", Cores: 2, MemGB: 1}, rng.New(23))
	return k, NewProc(eng)
}

// CompilePrepared on one reused Ctx — whose op-list arena still holds the
// previous call's ops — must be indistinguishable from Compile on a fresh
// Ctx: the same ops, return value, coverage blocks and rng state, for
// every spec in the table, with raw arguments that need zero-filling and
// domain reduction on the Compile side.
func TestCompilePreparedOnReusedCtxMatchesCompile(t *testing.T) {
	kA, procA := arenaWorld()
	kB, procB := arenaWorld()
	covA := &blockLog{}
	reused := &Ctx{Kern: kA, Core: 1, Proc: procA, Cov: covA}
	argSrc := rng.New(5)
	for round := 0; round < 3; round++ {
		for _, s := range Default().All() {
			raw := make([]uint64, len(s.Args))
			for i := range raw {
				raw[i] = argSrc.Uint64()
			}
			if round == 1 && len(raw) > 0 {
				raw = raw[:len(raw)-1] // Compile zero-fills the missing tail
			}
			full := make([]uint64, len(s.Args))
			for i, a := range s.Args {
				if i < len(raw) {
					full[i] = raw[i] % a.GenDomain()
				}
			}

			covA.blocks = covA.blocks[:0]
			opsA, retA := s.CompilePrepared(reused, full)
			covB := &blockLog{}
			opsB, retB := s.Compile(&Ctx{Kern: kB, Core: 1, Proc: procB, Cov: covB}, raw)

			if !slices.Equal(opsA, opsB) {
				t.Fatalf("round %d %s: ops differ:\nreused %v\nfresh  %v", round, s.Name, opsA, opsB)
			}
			if retA != retB {
				t.Fatalf("round %d %s: ret %d on the reused ctx, %d on a fresh one", round, s.Name, retA, retB)
			}
			if !slices.Equal(covA.blocks, covB.blocks) {
				t.Fatalf("round %d %s: coverage %v on the reused ctx, %v on a fresh one", round, s.Name, covA.blocks, covB.blocks)
			}
			// Equal draws from both cores' sources mean equal rng states; the
			// draw advances both identically, so later calls stay comparable.
			if a, b := kA.Rng(1).Uint64(), kB.Rng(1).Uint64(); a != b {
				t.Fatalf("round %d %s: rng state diverged", round, s.Name)
			}
		}
	}
}

// Spec.Compile hands back ops the caller owns: compiling again on the same
// Ctx, which rewrites the arena, must leave an earlier result untouched.
func TestCompileResultSurvivesNextCompile(t *testing.T) {
	ctx, _ := testCtx(t)
	tab := Default()
	first, _ := tab.Lookup("mmap").Compile(ctx, []uint64{1 << 16, 0})
	want := slices.Clone(first)
	for _, name := range []string{"munmap", "open", "fsync", "setuid", "fork"} {
		tab.Lookup(name).Compile(ctx, []uint64{1 << 16, 7, 3})
	}
	if !slices.Equal(first, want) {
		t.Fatalf("mmap's compiled ops changed under later compiles:\nnow  %v\nwant %v", first, want)
	}
}
