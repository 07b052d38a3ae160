package syscalls

import (
	"reflect"
	"strings"
	"testing"

	"ksa/internal/sim"
)

// Reset must rebuild exactly NewProc's state, whatever the process did
// before, while keeping its semaphore and descriptor storage.
func TestProcResetMatchesNewProc(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProc(eng)
	mm := p.MM
	for i := 0; i < 12; i++ {
		p.AddFD(FDSocket)
	}
	p.AddPipe()
	p.CloseFD(4)
	p.Salt, p.VMAs, p.Brk, p.UID, p.Caps, p.Umask, p.Children = 9, 3, 1<<30, 1000, 1, 0o22, 2
	mm.RLock(func() {})
	mm.RUnlock()

	p.Reset()
	if p.MM != mm {
		t.Fatal("Reset replaced the address-space semaphore instead of reusing it")
	}
	if mm.Acquires() != 0 || mm.Contended() != 0 || mm.MaxQueue() != 0 {
		t.Fatalf("Reset kept mm counters: acquires=%d contended=%d maxq=%d", mm.Acquires(), mm.Contended(), mm.MaxQueue())
	}
	fresh := NewProc(eng)
	fresh.MM = p.MM
	if !reflect.DeepEqual(p, fresh) {
		t.Fatalf("reset process differs from a new one:\nreset %+v\nnew   %+v", *p, *fresh)
	}
}

// Resetting a process whose address space is still in use would orphan the
// holder or the queued waiters, so Reset refuses.
func TestProcResetPanicsOnBusyMM(t *testing.T) {
	cases := map[string]func(mm *sim.RWLock){
		"reader held": func(mm *sim.RWLock) { mm.RLock(func() {}) },
		"writer held": func(mm *sim.RWLock) { mm.Lock(func() {}) },
		"waiter queued": func(mm *sim.RWLock) {
			mm.Lock(func() {})
			mm.RLock(func() {})
			mm.Unlock() // the queued reader is granted and now holds it
			mm.Lock(func() {})
		},
	}
	for name, busy := range cases {
		t.Run(name, func(t *testing.T) {
			p := NewProc(sim.NewEngine())
			busy(p.MM)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("Reset of a process with a busy mm did not panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, "busy RWLock") {
					t.Fatalf("unexpected panic %v", r)
				}
			}()
			p.Reset()
		})
	}
}
