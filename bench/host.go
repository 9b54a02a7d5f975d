package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// host is what the benchmark knows about the speed of the machine it runs
// on: the canary and its readings, the quiet level they imply, and what
// earlier runs in this checkout left behind.
//
// The machine has two speeds (canary.go). A block or a set-up counts only if
// the readings around it are near the quiet level, and between blocks a run
// waits while the host reads slow, within a budget, so that a slow spell
// costs a run its time and not its numbers. A spell with not one quiet
// moment in it cannot be told from a slower machine by a run on its own, so
// each run leaves the quiet level it saw in out/host.json and the next one
// in the same checkout starts from it.
type host struct {
	canary   *canary
	readings []float64 // every reading of this process in order, ns per round trip
	lowest   []float64 // its levelRank+1 fastest readings, ascending
	// What out/host.json held when the process began: the lowest quiet
	// level an earlier run saw (0 if none), and the waiting they did.
	known float64
	spent time.Duration
	// waited is how long this process has waited for the host to turn quiet.
	// Only a patient host waits: the runs that measure end-to-end metrics.
	// The trace pass, whose numbers have no bound to hold, leaves the budget
	// to them.
	waited  time.Duration
	patient bool
}

const (
	// levelRank is how many readings are faster than the one taken as the
	// quiet level, given enough readings. Not the fastest itself: one
	// reading in a few thousand comes out a sixth below all the others, and
	// a limit set by it would call nothing quiet.
	levelRank = 4
	// A run waits for a quiet host for at most waitPerRun, and the runs of
	// one checkout together for at most waitPerCheckout: the driver gives a
	// run 180 s and the 136 runs of a check 3420 s, of which they need half.
	waitPerRun      = 100 * time.Second
	waitPerCheckout = 600 * time.Second
	waitStep        = 5 * time.Millisecond
	hostFile        = "host.json" // in the trace directory, out/
)

// read takes one canary reading and returns its index.
func (h *host) read() (int, error) {
	if h.canary == nil {
		c, err := newCanary()
		if err != nil {
			return 0, err
		}
		h.canary = c
	}
	v, err := h.canary.read()
	if err != nil {
		return 0, err
	}
	h.readings = append(h.readings, v)
	if i := sort.SearchFloat64s(h.lowest, v); i <= levelRank {
		h.lowest = append(h.lowest, 0)
		copy(h.lowest[i+1:], h.lowest[i:])
		h.lowest[i] = v
		if len(h.lowest) > levelRank+1 {
			h.lowest = h.lowest[:levelRank+1]
		}
	}
	return len(h.readings) - 1, nil
}

// level is the quiet level: the reading a tenth of this process's readings
// are faster than, at most levelRank of them, or what an earlier run saw if
// that was faster still.
func (h *host) level() float64 {
	rank := len(h.readings) / 10
	if rank > levelRank {
		rank = levelRank
	}
	own := h.lowest[rank]
	if h.known > 0 && h.known < own {
		return h.known
	}
	return own
}

// limit is the slowest reading that still counts as quiet.
func (h *host) limit() float64 { return quietFactor * h.level() }

// quietAround reports whether the host was quiet while the block that ended
// at reading i ran: the two readings around the block and span more on
// either side are all within the limit. The decision never looks at what
// the block itself measured.
func (h *host) quietAround(i, span int) bool {
	limit := h.limit()
	for k := i - 1 - span; k <= i+span; k++ {
		if k >= 0 && k < len(h.readings) && h.readings[k] > limit {
			return false
		}
	}
	return true
}

// await takes a reading and, if the host is patient, while the host reads
// slow and the budget lasts, waits and reads again. It returns the index of
// the last reading: what follows starts on a quiet host, or the budget is
// spent.
func (h *host) await() (int, error) {
	at, err := h.read()
	for err == nil && h.patient && h.readings[at] > h.limit() && h.waited < waitPerRun && h.spent+h.waited < waitPerCheckout {
		t0 := time.Now()
		time.Sleep(waitStep)
		at, err = h.read()
		h.waited += time.Since(t0)
	}
	return at, err
}

func (h *host) close() {
	if h.canary != nil {
		h.canary.close()
		h.canary = nil
	}
}

// hostState is what a run leaves in out/host.json for the next.
type hostState struct {
	QuietNs float64 `json:"quiet_ns"`
	WaitedS float64 `json:"waited_s"`
}

// load reads what earlier runs in this checkout left; a missing or
// unreadable file is a checkout's first run.
func (h *host) load(dir string) {
	data, err := os.ReadFile(filepath.Join(dir, hostFile))
	var st hostState
	if err != nil || json.Unmarshal(data, &st) != nil || st.QuietNs < 0 || st.WaitedS < 0 {
		return
	}
	h.known, h.spent = st.QuietNs, time.Duration(st.WaitedS*float64(time.Second))
}

// save leaves the quiet level (once this process has readings enough to
// trust its own) and the waiting done so far for the next run.
func (h *host) save(dir string) error {
	st := hostState{QuietNs: h.known, WaitedS: (h.spent + h.waited).Seconds()}
	if len(h.readings) >= 10*levelRank {
		st.QuietNs = h.level()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, hostFile), data, 0o644)
}
