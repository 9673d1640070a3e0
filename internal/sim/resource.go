package sim

// Resource is a counted resource with a FIFO wait queue. The GPU command
// processor, for instance, is a capacity-1 Resource: guest VMs' command
// submissions acquire it in arrival order, which is what produces the linear
// multi-VM scaling of Figure 6.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  FIFO[*Proc]
}

// NewResource returns a resource with the given capacity (must be >= 1).
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: e, name: name, capacity: capacity}
}

// Acquire blocks p until a unit of the resource is available, then takes it.
func (r *Resource) Acquire(p *Proc) {
	p.check()
	if r.inUse < r.capacity && r.waiters.Len() == 0 {
		r.inUse++
		return
	}
	r.waiters.Push(p)
	p.block()
	// Release granted the unit to us before resuming.
}

// Release returns a unit, handing it to the longest-waiting process if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if r.waiters.Len() > 0 {
		next := r.waiters.Pop()
		// The unit transfers directly: inUse stays constant.
		next.scheduleResume(r.env.now, false)
		return
	}
	r.inUse--
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting.
func (r *Resource) QueueLen() int { return r.waiters.Len() }
