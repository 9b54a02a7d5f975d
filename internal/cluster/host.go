package cluster

import (
	"errors"
	"sync"

	"repro/internal/winner"
)

// ErrHostFailed is returned by Compute on a crashed host.
var ErrHostFailed = errors.New("cluster: host has failed")

// Host is one simulated workstation: a name, a static relative speed, a
// virtual clock, a background-load level and an active-job counter.
//
// The timesharing model: a compute job receives the CPU share
// speed / (1 + background), i.e. one background process halves throughput
// — the behaviour the paper induces by generating background load on
// selected workstations.
type Host struct {
	name  string
	speed float64
	cpus  int
	clock Clock

	mu         sync.Mutex
	background int
	jobs       int
	failed     bool
}

// NewHost creates a uniprocessor workstation with the given relative
// per-CPU speed (1.0 = the reference machine).
func NewHost(name string, speed float64) *Host {
	return NewHostMP(name, speed, 1)
}

// NewHostMP creates a multiprocessor workstation with cpus processors —
// the mixed uniprocessor/multiprocessor NOWs Winner was built for. Demand
// up to the CPU count runs at full per-CPU speed; beyond that, processes
// time-share.
func NewHostMP(name string, speed float64, cpus int) *Host {
	if speed <= 0 {
		speed = 1
	}
	if cpus < 1 {
		cpus = 1
	}
	return &Host{name: name, speed: speed, cpus: cpus}
}

// CPUs returns the processor count.
func (h *Host) CPUs() int { return h.cpus }

// Name returns the workstation name.
func (h *Host) Name() string { return h.name }

// Speed returns the static relative speed.
func (h *Host) Speed() float64 { return h.speed }

// Clock returns the host's virtual clock.
func (h *Host) Clock() *Clock { return &h.clock }

// SetBackground sets the number of competing background processes.
func (h *Host) SetBackground(n int) {
	h.mu.Lock()
	if n < 0 {
		n = 0
	}
	h.background = n
	h.mu.Unlock()
}

// Background returns the current background-load level.
func (h *Host) Background() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.background
}

// share computes the CPU share one job receives given the competing
// demand. Callers hold h.mu.
func (h *Host) share(otherDemand int) float64 {
	demand := float64(otherDemand + 1)
	cpus := float64(h.cpus)
	if demand <= cpus {
		return h.speed
	}
	return h.speed * cpus / demand
}

// EffectiveSpeed returns the CPU share a new compute job would receive
// now, considering background load only (the pre-placement view).
func (h *Host) EffectiveSpeed() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.share(h.background)
}

// BeginJob marks a compute job active (visible in the host's run queue,
// and therefore to Winner node managers). Pair with EndJob.
func (h *Host) BeginJob() {
	h.mu.Lock()
	h.jobs++
	h.mu.Unlock()
}

// EndJob marks a compute job finished.
func (h *Host) EndJob() {
	h.mu.Lock()
	if h.jobs > 0 {
		h.jobs--
	}
	h.mu.Unlock()
}

// Compute charges units seconds of reference-CPU work to the host,
// advancing its virtual clock by units / effectiveSpeed. Competing
// demand counts both background processes and other active compute jobs
// (a caller inside BeginJob/EndJob does not compete with itself), so two
// services colocated on one workstation — e.g. active replicas — each run
// at half speed, like timeshared processes would. It fails if the host
// has crashed.
func (h *Host) Compute(units float64) error {
	h.mu.Lock()
	if h.failed {
		h.mu.Unlock()
		return ErrHostFailed
	}
	otherJobs := h.jobs - 1
	if otherJobs < 0 {
		otherJobs = 0
	}
	eff := h.share(h.background + otherJobs)
	h.mu.Unlock()
	if units > 0 {
		h.clock.Advance(units / eff)
	}
	return nil
}

// Fail crashes the host: subsequent Compute calls fail. Network-level
// failure (COMM_FAILURE for clients) is handled by Node.Fail, which also
// closes the host's adapter.
func (h *Host) Fail() {
	h.mu.Lock()
	h.failed = true
	h.mu.Unlock()
}

// Recover brings a crashed host back.
func (h *Host) Recover() {
	h.mu.Lock()
	h.failed = false
	h.mu.Unlock()
}

// Failed reports whether the host has crashed.
func (h *Host) Failed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failed
}

// Sample implements winner.LoadSource: the node manager's view of this
// workstation. The run queue counts background processes plus active
// compute jobs. Sequence numbers are assigned by the node manager.
func (h *Host) Sample() winner.LoadSample {
	h.mu.Lock()
	defer h.mu.Unlock()
	return winner.LoadSample{
		Host:     h.name,
		Speed:    h.speed,
		RunQueue: float64(h.background + h.jobs),
		CPUs:     int32(h.cpus),
	}
}
