package syscalls

import (
	"ksa/internal/kernel"
	"ksa/internal/sim"
)

// Shared compile fragments. Branch numbers passed as bBase keep coverage
// blocks distinct across the call sites that share a fragment.
//
// Contention fidelity matters here: most kernel objects a process touches
// are effectively private (per-process dentries and inodes, per-CPU page
// sets, process-private futexes), so concurrent processes running the same
// program do not inflate each other's *medians*. What they do share — the
// journal commit path, the audit log, the tasklist, the IPI bus, the block
// device — is exactly where the paper finds surface-area-dependent tails.

// computeOnly compiles a call that takes no lock and touches no shared
// state: one coverage block and cost microseconds on the CPU.
func computeOnly(cost float64) CompileFunc {
	d := us(cost)
	return func(ctx *Ctx, l *kernel.OpList, _ []uint64) uint64 {
		ctx.cover(1)
		l.Compute(d)
		return 0
	}
}

// pathLookup models resolving a path: an RCU-walk dcache hit costs only
// compute; a miss takes the (hashed, salted) dcache shard lock and may go
// to disk for the inode.
func pathLookup(ctx *Ctx, l *kernel.OpList, pathArg uint64, bBase uint8) {
	components := 2 + int(pathArg%3)
	l.Compute(us(0.15 * float64(components)))
	if ctx.Kern.DentryCacheHit(ctx.Core) {
		ctx.cover(bBase)
		return
	}
	ctx.cover(bBase + 1)
	l.Crit(dcacheLock(ctx, pathArg), us(1.2))
	// A cold dentry occasionally needs the inode from disk (rare: inode
	// tables are hot for the benchmark's small working set).
	if ctx.rng().Bool(0.05) {
		ctx.cover(bBase + 2)
		l.BlockIO(0)
	}
}

// dentryMutate models creating or removing a dentry: the process's own hash
// shard, short hold.
func dentryMutate(ctx *Ctx, l *kernel.OpList, pathArg uint64, work sim.Time) {
	l.Crit(dcacheLock(ctx, pathArg), work)
}

// journalTxn models a journaled filesystem mutation the jbd2 way: starting
// a handle and dirtying metadata is cheap and concurrent; occasionally the
// handle must wait for (or force) a commit, which serializes every
// transaction in the kernel behind a device write — the filesystem
// category's unbounded-tail mechanism.
func journalTxn(ctx *Ctx, l *kernel.OpList, work sim.Time, bBase uint8) {
	ctx.cover(bBase)
	// Starting a handle joins the running transaction under the journal
	// state lock; if a commit is in flight, every starter on this kernel
	// blocks until the commit's log write finishes — so one core's commit
	// (possibly stretched by a housekeeping burst) stalls every filesystem
	// mutator the kernel manages.
	l.Crit(kernel.LockJournal, us(0.4)+work/4)
	l.Compute(work / 2) // dirty the buffers
	if ctx.rng().Bool(0.025) {
		// Transaction closes: commit, holding the journal through the log
		// write to the device.
		ctx.cover(bBase + 1)
		l.Lock(kernel.LockJournal)
		l.Compute(us(2))
		l.BlockIO(us(40)) // sequential log write
		l.Unlock(kernel.LockJournal)
	}
}

// auditRecord models emitting a security audit record: serialized on the
// global audit log lock. Permission-changing calls pay a long hold; this is
// the mechanism behind Figure 2(f)'s whole-mass shift.
func auditRecord(ctx *Ctx, l *kernel.OpList, work sim.Time, bBase uint8) {
	ctx.cover(bBase)
	l.Crit(kernel.LockAudit, work)
}

// credCommit models committing new credentials followed by an RCU grace
// period (synchronize_rcu-style): the caller sleeps until the next tick
// boundary, the ~1 ms floor the paper's permission calls show even on
// uniprocessor guests.
func credCommit(ctx *Ctx, l *kernel.OpList, bBase uint8) {
	ctx.cover(bBase)
	l.Crit(kernel.LockCred, us(1.5))
	l.Sleep(us(200))
}

// pageAlloc models allocating pages: the per-CPU pageset usually satisfies
// the request without any shared lock; refills hit the zone lock.
func pageAlloc(ctx *Ctx, l *kernel.OpList, work sim.Time, bBase uint8) {
	if ctx.rng().Bool(0.12) {
		ctx.cover(bBase)
		l.Crit(kernel.LockZone, work)
	} else {
		ctx.cover(bBase + 1)
		l.Compute(work / 2)
	}
}

// lruTouch models LRU bookkeeping: batched per-CPU pagevecs most of the
// time, the shared lru_lock on drain.
func lruTouch(ctx *Ctx, l *kernel.OpList, work sim.Time, bBase uint8) {
	if ctx.rng().Bool(0.15) {
		ctx.cover(bBase)
		l.Crit(kernel.LockLRU, work)
	} else {
		ctx.cover(bBase + 1)
		l.Compute(work / 3)
	}
}

// mix hashes a value with the process salt into a shard index.
func mix(ctx *Ctx, v uint64, shards uint64) kernel.LockID {
	h := (v ^ ctx.Proc.Salt) * 0x9e3779b97f4a7c15
	return kernel.LockID((h >> 32) % shards)
}

// dcacheLock returns the salted dentry hash shard for a path argument.
func dcacheLock(ctx *Ctx, pathArg uint64) kernel.LockID {
	return kernel.LockDcacheBase + mix(ctx, pathArg, kernel.NumDcacheShards)
}

// inodeLock returns the salted inode mutex shard for an inode number.
func inodeLock(ctx *Ctx, inode uint64) kernel.LockID {
	return kernel.LockInodeBase + mix(ctx, inode, kernel.NumInodeShards)
}

// futexLock returns the salted futex hash-bucket lock for a uaddr
// (process-private futexes hash on mm + address).
func futexLock(ctx *Ctx, uaddr uint64) kernel.LockID {
	return kernel.LockFutexBase + mix(ctx, uaddr, kernel.NumFutexShards)
}

// ipcObjLock returns the salted per-object lock for a SysV IPC object
// (message queue, semaphore set): each process creates and uses its own
// keys, so these rarely collide across processes. Namespace-level lookups
// still use the global LockIPC.
func ipcObjLock(ctx *Ctx, key uint64) kernel.LockID {
	return kernel.LockPipeBase + mix(ctx, key^0x1bc7, kernel.NumPipeShards)
}

// pipeLock returns the salted pipe mutex for a pipe identity.
func pipeLock(ctx *Ctx, pipe uint64) kernel.LockID {
	return kernel.LockPipeBase + mix(ctx, pipe, kernel.NumPipeShards)
}

// rqLock returns the runqueue lock of the issuing core.
func rqLock(ctx *Ctx) kernel.LockID {
	return kernel.LockRunqueue + kernel.LockID(ctx.Core%256)
}

// vmaWalk returns the CPU time to find a mapping in an n-entry VMA tree
// (logarithmic, as in the kernel's rb-tree/maple-tree walks).
func vmaWalk(n int) sim.Time {
	cost := 0.15
	for m := 1; m < n+1; m <<= 1 {
		cost += 0.12
	}
	return sim.FromMicros(cost)
}

// copyCost returns the CPU time to copy n bytes between user and kernel
// space (~30 GB/s effective).
func copyCost(n uint64) sim.Time {
	return sim.FromMicros(float64(n) * 0.000033)
}

// pageWork returns CPU time proportional to the pages spanned by n bytes.
func pageWork(n uint64, perPageUs float64) sim.Time {
	pages := n / 4096
	if pages == 0 {
		pages = 1
	}
	if pages > 4096 {
		pages = 4096
	}
	return sim.FromMicros(perPageUs * float64(pages))
}
