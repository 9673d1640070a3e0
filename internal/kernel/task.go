package kernel

import (
	"fmt"

	"paradice/internal/mem"
	"paradice/internal/sim"
)

// Task is a thread of execution: a user application thread, or a kernel
// worker such as a CVD backend thread. Paradice's wrapper-stub mechanism
// (§5.2) lives here: when the CVD backend executes a file operation on
// behalf of a guest VM it marks the task, and the kio memory operations
// consult the mark to redirect to the hypervisor instead of local memory.
type Task struct {
	Proc *Process
	Name string

	// QoS is the task's quality-of-service class, consulted by the CVD
	// frontend's admission control: classes with a configured ring-occupancy
	// limit get EAGAIN instead of queueing once the shared ring is loaded
	// past their limit. Class 0 (the default) is the highest class.
	QoS uint8

	// Marked indicates this task is executing a file operation for a
	// remote guest process (the flag in task_struct the paper describes).
	Marked bool
	// Remote is the hypervisor-API conduit used while Marked.
	Remote RemoteOps

	sp   *sim.Proc
	err  error  // what a Go body returned
	done bool   // the Go body has returned
	fop  FopCtx // the context of the system call in progress (sys)
}

// RemoteOps is the hypervisor memory-operation API as seen by the wrapper
// stubs in the driver VM kernel. The CVD backend implements it, attaching
// the file operation's grant reference to every request (§5.1).
type RemoteOps interface {
	// CopyToUser copies data into the remote guest process at dst.
	CopyToUser(dst mem.GuestVirt, src []byte) error
	// CopyFromUser copies len(buf) bytes from the remote guest process.
	CopyFromUser(src mem.GuestVirt, buf []byte) error
	// MapPage maps the driver-VM page frame pfn at va in the remote guest
	// process address space.
	MapPage(va mem.GuestVirt, pfn mem.GuestPhys) error
	// UnmapPage removes a previously mapped page at va.
	UnmapPage(va mem.GuestVirt) error
}

// Go starts fn as a new thread of this process on the simulation clock and
// returns the Task handle (available immediately; fn runs when the scheduler
// first hands it control). Err reports how fn ended.
func (p *Process) Go(name string, fn func(t *Task) error) *Task {
	t := &Task{Proc: p, Name: name}
	p.K.Env.Spawn(p.K.Name+"/"+name, func(sp *sim.Proc) {
		t.sp = sp
		t.err = fn(t)
		t.done = true
	})
	return t
}

// SpawnTask starts fn as a thread of this process, like Go, for a body that
// reports no error.
func (p *Process) SpawnTask(name string, fn func(t *Task)) *Task {
	return p.Go(name, func(t *Task) error { fn(t); return nil })
}

// RunTask runs fn as a thread of this process, drives the simulation until
// the calendar drains — the sequential-experiment convenience — and returns
// the task's Err.
func (p *Process) RunTask(name string, fn func(t *Task) error) error {
	t := p.Go(name, fn)
	p.K.Env.Run()
	return t.Err()
}

// Err returns what the task's body returned, or an error naming the task if
// the body has not returned: it is still blocked, or was never resumed.
func (t *Task) Err() error {
	if !t.done {
		return fmt.Errorf("kernel: task %s/%s did not finish", t.Proc.Name, t.Name)
	}
	return t.err
}

// AdoptTask makes t, which the caller allocated, a thread of p running on
// an already-running simulation process. The CVD backend adopts one task per
// forwarded operation, held in the operation's own record.
func (p *Process) AdoptTask(t *Task, sp *sim.Proc) {
	*t = Task{Proc: p, sp: sp}
}

// Sim returns the simulation process executing this task.
func (t *Task) Sim() *sim.Proc { return t.sp }

// Mark flags the task as executing for a remote guest via the given
// hypervisor conduit. The returned function restores the previous state;
// the CVD backend defers it around each forwarded file operation.
func (t *Task) Mark(remote RemoteOps) func() {
	prevM, prevR := t.Marked, t.Remote
	t.Marked, t.Remote = true, remote
	return func() { t.Marked, t.Remote = prevM, prevR }
}
