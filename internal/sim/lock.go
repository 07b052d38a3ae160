package sim

// Lock is an exclusive FIFO lock resource (ticket-lock semantics): waiters
// are granted the lock in arrival order. Arrival order at the same virtual
// time is the event-schedule order, which the engine makes deterministic.
//
// Locks are pure resources: they track ownership and queue waiters, but the
// duration of a hold is decided by the holder (the kernel executor models
// hold times, including preemption of the holder by housekeeping noise, and
// calls Release when the modeled critical section ends).
type Lock struct {
	eng  *Engine
	name string
	held bool
	// waiters[head:] is the FIFO of queued grants. Release advances head
	// instead of reslicing the front away, and the queue rewinds to the
	// start of its backing array when it drains, so a contended lock stops
	// allocating once the array has grown to its deepest queue.
	waiters []waiter
	head    int

	// Contention counters, used by tests and by kernel introspection.
	acquires  uint64
	contended uint64
	maxQueue  int
	totalWait Time
}

// waiter is one queued grant callback and the time it arrived.
type waiter struct {
	fn func()
	at Time
}

// NewLock returns an unheld lock attached to eng. The name is used only for
// diagnostics.
func NewLock(eng *Engine, name string) *Lock {
	return &Lock{eng: eng, name: name}
}

// Held reports whether the lock is currently owned.
func (l *Lock) Held() bool { return l.held }

// QueueLen returns the number of waiters currently queued.
func (l *Lock) QueueLen() int { return len(l.waiters) - l.head }

// Acquires returns the total number of grants so far.
func (l *Lock) Acquires() uint64 { return l.acquires }

// Contended returns the number of grants that had to wait.
func (l *Lock) Contended() uint64 { return l.contended }

// MaxQueue returns the longest waiter queue observed.
func (l *Lock) MaxQueue() int { return l.maxQueue }

// TotalWait returns the cumulative time grants spent queued.
func (l *Lock) TotalWait() Time { return l.totalWait }

// Acquire requests the lock. If it is free the grant callback runs
// synchronously (zero virtual time elapses); otherwise the caller queues and
// granted runs when the lock is handed over.
func (l *Lock) Acquire(granted func()) {
	l.acquires++
	if !l.held {
		l.held = true
		granted()
		return
	}
	l.contended++
	if l.head > 0 && len(l.waiters) == cap(l.waiters) {
		// Full, with spent slots at the front: slide the live queue down
		// instead of growing past entries that will never be read again.
		n := copy(l.waiters, l.waiters[l.head:])
		clear(l.waiters[n:])
		l.waiters, l.head = l.waiters[:n], 0
	}
	l.waiters = append(l.waiters, waiter{granted, l.eng.Now()})
	if q := l.QueueLen(); q > l.maxQueue {
		l.maxQueue = q
	}
}

// Release hands the lock to the oldest waiter, or frees it. The next grant
// callback runs synchronously at the current virtual time; a hand-off delay,
// if the model wants one, belongs in the holder's modeled hold time.
func (l *Lock) Release() {
	if !l.held {
		panic("sim: Release of unheld lock " + l.name)
	}
	if l.QueueLen() == 0 {
		l.held = false
		return
	}
	next := l.waiters[l.head]
	l.waiters[l.head] = waiter{} // drop the spent grant's closure
	l.head++
	if l.head == len(l.waiters) {
		l.waiters, l.head = l.waiters[:0], 0
	}
	l.totalWait += l.eng.Now() - next.at
	next.fn()
}
