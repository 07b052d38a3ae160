package syscalls

import (
	"slices"
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// compileOps compiles one call into a list of its own and returns that
// list's ops, for tests that want a []kernel.Op.
func compileOps(s *Spec, ctx *Ctx, args []uint64) ([]kernel.Op, uint64) {
	var l kernel.OpList
	ret := s.Compile(ctx, &l, args)
	ops := l.Ops()
	return ops, ret
}

// blockLog records coverage hits in order.
type blockLog struct{ blocks []uint32 }

func (b *blockLog) Hit(block uint32) { b.blocks = append(b.blocks, block) }

// twinWorld is one kernel and process that a sequence of compilations
// runs against; two worlds built from the same seed start identical.
func twinWorld() (*kernel.Kernel, *Proc) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "a", Cores: 2, MemGB: 1}, rng.New(23))
	return k, NewProc(eng)
}

// rawArgs draws a raw argument list for s; in round 1 it is one short, so
// Compile must zero-fill the missing tail.
func rawArgs(s *Spec, src *rng.Source, round int) []uint64 {
	raw := make([]uint64, len(s.Args))
	for i := range raw {
		raw[i] = src.Uint64()
	}
	if round == 1 && len(raw) > 0 {
		raw = raw[:len(raw)-1]
	}
	return raw
}

// prepared is the argument slice CompilePrepared expects for raw: every
// value reduced into its domain, the missing tail zero.
func prepared(s *Spec, raw []uint64) []uint64 {
	full := make([]uint64, len(s.Args))
	for i, a := range s.Args {
		if i < len(raw) {
			full[i] = raw[i] % a.GenDomain()
		}
	}
	return full
}

// CompilePrepared on one reused Ctx and one reused list — reset, but whose
// storage still holds the previous call's ops — must be indistinguishable
// from Compile on a fresh Ctx into a fresh list: the same ops, return
// value, coverage blocks and rng state, for every spec in the table, with
// raw arguments that need zero-filling and domain reduction on the
// Compile side.
func TestCompilePreparedOnReusedCtxMatchesCompile(t *testing.T) {
	kA, procA := twinWorld()
	kB, procB := twinWorld()
	covA := &blockLog{}
	reused := &Ctx{Kern: kA, Core: 1, Proc: procA, Cov: covA}
	var l kernel.OpList
	argSrc := rng.New(5)
	for round := 0; round < 3; round++ {
		for _, s := range Default().All() {
			raw := rawArgs(s, argSrc, round)

			covA.blocks = covA.blocks[:0]
			l.Reset()
			retA := s.CompilePrepared(reused, &l, prepared(s, raw))
			opsA := l.Ops()
			covB := &blockLog{}
			opsB, retB := compileOps(s, &Ctx{Kern: kB, Core: 1, Proc: procB, Cov: covB}, raw)

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

// Compile and CompilePrepared append to the caller's list and never reset
// it: ops already in the list stay as they were, and what a call appends
// equals what it compiles into an empty list. Request builders that
// compile several calls and user-space slices into one task rely on this.
func TestCompileAppendsToCallersList(t *testing.T) {
	kA, procA := twinWorld()
	kB, procB := twinWorld()
	ctxA := &Ctx{Kern: kA, Core: 1, Proc: procA, Cov: NopCoverage{}}
	ctxB := &Ctx{Kern: kB, Core: 1, Proc: procB, Cov: NopCoverage{}}
	var l kernel.OpList
	l.UserCompute(sim.FromMicros(3), 1) // a request's user-space slice
	argSrc := rng.New(9)
	for round := 0; round < 2; round++ {
		for _, s := range Default().All() {
			raw := rawArgs(s, argSrc, round)
			before := slices.Clone(l.Ops())
			var ret uint64
			if round == 0 {
				ret = s.Compile(ctxA, &l, raw)
			} else {
				ret = s.CompilePrepared(ctxA, &l, prepared(s, raw))
			}
			want, wantRet := compileOps(s, ctxB, raw)

			if got := l.Ops()[:len(before)]; !slices.Equal(got, before) {
				t.Fatalf("round %d %s: ops already in the list changed", round, s.Name)
			}
			if got := l.Ops()[len(before):]; !slices.Equal(got, want) {
				t.Fatalf("round %d %s: appended %v, want %v", round, s.Name, got, want)
			}
			if ret != wantRet {
				t.Fatalf("round %d %s: ret %d after existing ops, %d into an empty list", round, s.Name, ret, wantRet)
			}
		}
	}
}
