package guest

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/hw"
	"repro/internal/mem"
)

// Process lifecycle and scheduling. Context switches go through the
// runtime's SwitchAS hook — direct CR3 writes under RunC/HVM, a
// hypercall under PVM, a validated KSM call under CKI — which is what
// makes lmbench's ctxsw/fork/execve rows diverge across runtimes
// (Fig. 11).

// scheduling body costs.
var (
	sysBodyFork   = clock.FromNanos(9000)
	sysBodyExecve = clock.FromNanos(21000)
	sysBodyExit   = clock.FromNanos(2600)
	sysBodyWait   = clock.FromNanos(150)
	sysBodyYield  = clock.FromNanos(80)
	costSchedPick = clock.FromNanos(150)
	costRegsSave  = clock.FromNanos(60)
)

// StartInit creates and activates PID 1 with an empty address space.
func (k *Kernel) StartInit() (*Proc, error) {
	p, err := k.newProc(0)
	if err != nil {
		return nil, err
	}
	k.Cur = p
	if err := k.PV.SwitchAS(k, p.AS); err != nil {
		return nil, err
	}
	return p, nil
}

func (k *Kernel) newProc(parent int) (*Proc, error) {
	as, err := k.NewAddrSpace()
	if err != nil {
		return nil, err
	}
	p := &Proc{
		PID:      k.nextPID,
		Parent:   parent,
		AS:       as,
		fds:      make(map[int]*File),
		nextFD:   3,
		brk:      UserBrkBase,
		Affinity: -1,
	}
	k.nextPID++
	k.procs[p.PID] = p
	return p, nil
}

// Proc returns the process with the given PID, or nil.
func (k *Kernel) Proc(pid int) *Proc { return k.procs[pid] }

// Fork clones the current process: VMAs are copied, resident pages are
// duplicated into fresh frames (each map going through the runtime's
// PTE-update path — the operation PVM pays a hypercall per entry for),
// and descriptors are shared. A failure mid-copy (memory pressure)
// reaps the partial child and surfaces the error.
func (k *Kernel) Fork() (int, error) {
	pid, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyFork)
		parent := k.Cur
		child, err := k.newProc(parent.PID)
		if err != nil {
			return 0, err
		}
		if err := k.forkEagerCopy(parent, child); err != nil {
			k.reapFailedFork(child)
			return 0, err
		}
		k.shareDescriptors(parent, child)
		k.runq = append(k.runq, child)
		k.Stats.ForkedProcs++
		return uint64(child.PID), nil
	})
	return int(pid), err
}

// forkEagerCopy duplicates the parent's VMAs and resident pages.
func (k *Kernel) forkEagerCopy(parent, child *Proc) error {
	k.copyVMAs(parent, child)
	mp := k.mapper(child.AS)
	for va := range parent.AS.mapped {
		v := parent.AS.FindVMA(va)
		if v == nil {
			continue
		}
		if v.Huge {
			seg, err := k.Mem.AllocSegment(mem.HugePageSize/mem.PageSize, k.ContainerID)
			if err != nil {
				return ENOMEM
			}
			if err := mp.MapHuge(va, seg.Base, protFlags(v.Prot), 0); err != nil {
				return err
			}
			child.AS.mapped[va] = seg.Base
			k.charge(costPageCopy * clock.Time(mem.HugePageSize/mem.PageSize))
			continue
		}
		pfn, err := k.PV.AllocFrame(k)
		if err != nil {
			return ENOMEM
		}
		if err := mp.Map(va, pfn, protFlags(v.Prot), 0); err != nil {
			return err
		}
		child.AS.mapped[va] = pfn
		k.charge(costPageCopy)
	}
	return nil
}

// copyVMAs clones the parent's VMA list and cursors into the child.
func (k *Kernel) copyVMAs(parent, child *Proc) {
	for _, v := range parent.AS.vmas {
		nv := *v
		child.AS.vmas = append(child.AS.vmas, &nv)
		if v == parent.AS.heapVMA {
			child.AS.heapVMA = child.AS.vmas[len(child.AS.vmas)-1]
		}
	}
	child.AS.mmapCursor = parent.AS.mmapCursor
	child.brk = parent.brk
}

// shareDescriptors gives the child the parent's descriptor table.
func (k *Kernel) shareDescriptors(parent, child *Proc) {
	for fd, f := range parent.fds {
		child.fds[fd] = f
		switch f.kind {
		case kindPipeR:
			f.pipe.readers++
		case kindPipeW:
			f.pipe.writers++
		}
	}
	child.nextFD = parent.nextFD
}

// reapFailedFork tears down a partially-constructed child when fork
// fails mid-copy, so memory pressure does not leak half a process.
func (k *Kernel) reapFailedFork(child *Proc) {
	_ = k.DestroyAddrSpace(child.AS)
	for fd, f := range child.fds {
		k.dropFile(f)
		delete(child.fds, fd)
	}
	delete(k.procs, child.PID)
	for i, q := range k.runq {
		if q == child {
			k.runq = append(k.runq[:i], k.runq[i+1:]...)
			break
		}
	}
}

// Execve replaces the current image: the old address space is destroyed
// and a minimal new one (text, stack) is mapped and demand-faulted in.
func (k *Kernel) Execve(textPages, dataPages int) error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyExecve)
		p := k.Cur
		old := p.AS
		as, err := k.NewAddrSpace()
		if err != nil {
			return 0, err
		}
		p.AS = as
		p.brk = UserBrkBase
		if err := k.DestroyAddrSpace(old); err != nil {
			return 0, err
		}
		if err := k.PV.SwitchAS(k, as); err != nil {
			return 0, err
		}
		text := &VMA{Start: UserTextBase, End: UserTextBase + uint64(textPages)*mem.PageSize, Prot: ProtRead | ProtExec}
		if err := as.addVMA(text); err != nil {
			return 0, err
		}
		stack := &VMA{Start: UserStackTop - uint64(dataPages)*mem.PageSize, End: UserStackTop, Prot: ProtRead | ProtWrite}
		if err := as.addVMA(stack); err != nil {
			return 0, err
		}
		// Populate the image eagerly (load-time faults).
		for i := 0; i < textPages; i++ {
			if err := k.HandleUserFault(p, text.Start+uint64(i)*mem.PageSize, false); err != nil {
				return 0, err
			}
		}
		for i := 0; i < dataPages; i++ {
			if err := k.HandleUserFault(p, stack.Start+uint64(i)*mem.PageSize, true); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	return err
}

// Exit terminates the current process and switches to the next runnable
// one (or leaves Cur nil if none).
func (k *Kernel) Exit(code int) error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyExit)
		p := k.Cur
		for fd, f := range p.fds {
			k.dropFile(f)
			delete(p.fds, fd)
		}
		if err := k.DestroyAddrSpace(p.AS); err != nil {
			return 0, err
		}
		p.Exited = true
		if next := k.pickNext(); next != nil {
			return 0, k.switchTo(next)
		}
		k.Cur = nil
		return 0, nil
	})
	return err
}

// Wait reaps one exited child of the current process.
func (k *Kernel) Wait() (int, error) {
	pid, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyWait)
		for pid, c := range k.procs {
			if c.Exited && c.Parent == k.Cur.PID {
				delete(k.procs, pid)
				return uint64(pid), nil
			}
		}
		return 0, ECHILD
	})
	return int(pid), err
}

func (k *Kernel) pickNext() *Proc {
	for len(k.runq) > 0 {
		n := k.runq[0]
		k.runq = k.runq[1:]
		if !n.Exited {
			return n
		}
	}
	return nil
}

// switchTo performs the context switch to p: scheduler pick, register
// state swap, and the runtime's address-space switch.
func (k *Kernel) switchTo(p *Proc) error {
	span := k.Spans.Begin("ctx_switch")
	defer k.Spans.End(span)
	k.Phase("sched_pick", costSchedPick)
	k.Phase("regs_save", costRegsSave)
	prev := k.Cur
	if prev != nil && !prev.Exited && prev != p {
		k.runq = append(k.runq, prev)
	}
	k.Cur = p
	k.Stats.CtxSwitches++
	return k.PV.SwitchAS(k, p.AS)
}

// Yield gives up the CPU to the next runnable process (sched_yield).
func (k *Kernel) Yield() error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyYield)
		next := k.pickNext()
		if next == nil || next == k.Cur {
			return 0, nil
		}
		return 0, k.switchTo(next)
	})
	return err
}

// EnablePreemption arms the virtual timer: every slice of virtual
// time, a timer interrupt is delivered through the runtime's flow and
// the CPU round-robins to the next runnable process.
func (k *Kernel) EnablePreemption(slice clock.Time) {
	k.Timeslice = slice
	k.timer.Period = slice
	k.timer.Reset(k.Clk.Now())
}

// SetInterruptsEnabled flips the in-memory virtual-IF bit (the cli/sti
// replacement of §4.1). Re-enabling delivers any deferred interrupts.
func (k *Kernel) SetInterruptsEnabled(on bool) {
	k.VIC.SetEnabled(on)
	if on {
		_ = k.VIC.Drain(func(vector int) error {
			span := k.Spans.Begin("timer_tick")
			k.PV.DeliverTimerIRQ(k)
			k.Stats.TimerTicks++
			err := k.reschedule()
			k.Spans.End(span)
			return err
		})
	}
}

// reschedule runs the tick handler's scheduler step in kernel context
// (the interrupt arrived in user mode; the handler runs in the guest
// kernel before returning to the *next* process's user context).
func (k *Kernel) reschedule() error {
	next := k.pickNext()
	if next == nil {
		return nil
	}
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	return k.switchTo(next)
}

// maybePreempt checks the virtual timer and, when a tick is due,
// delivers it and reschedules. With the virtual-IF bit clear the tick
// stays pending (the host holds it) until interrupts are re-enabled.
func (k *Kernel) maybePreempt() {
	if k.Timeslice <= 0 || !k.timer.Due(k.Clk.Now()) {
		return
	}
	if !k.VIC.Enabled() {
		k.VIC.Post(32)
		return
	}
	k.Stats.TimerTicks++
	span := k.Spans.Begin("timer_tick")
	k.PV.DeliverTimerIRQ(k)
	if err := k.reschedule(); err != nil {
		panic(fmt.Sprintf("guest: tick reschedule: %v", err))
	}
	k.Spans.End(span)
}

// SwitchToPID forces a context switch to a specific process; the
// ping-pong microbenchmarks (lmbench ctxsw, pipe, AF_UNIX) drive two
// processes alternately with it.
func (k *Kernel) SwitchToPID(pid int) error {
	_, err := k.syscall(func() (uint64, error) {
		p := k.procs[pid]
		if p == nil || p.Exited {
			return 0, ECHILD
		}
		if p == k.Cur {
			return 0, nil
		}
		// Remove p from the run queue if present.
		for i, q := range k.runq {
			if q == p {
				k.runq = append(k.runq[:i], k.runq[i+1:]...)
				break
			}
		}
		return 0, k.switchTo(p)
	})
	return err
}
