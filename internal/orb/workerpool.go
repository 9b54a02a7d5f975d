package orb

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/giop"
	"repro/internal/obs"
)

// dispatchTask is one admitted request on its way through the shared
// worker pool. Tasks are pooled; the embedded ServerContext is the
// per-dispatch scratch that lets the servant-facing context live without
// a steady-state allocation.
type dispatchTask struct {
	a       *Adapter
	sc      *serverConn
	req     *giop.Message
	rctx    context.Context
	rcancel context.CancelFunc
	// admitted is the request's admission instant (the FrameReader's
	// batch stamp); dequeue minus admitted is the queue-wait signal.
	admitted time.Time
	// class and tenant are the request's QoS coordinates, decoded once
	// from the SCQoS service context at admission.
	class  Priority
	tenant string
	sctx   ServerContext
}

var taskPool = sync.Pool{New: func() any { return new(dispatchTask) }}

func acquireTask() *dispatchTask { return taskPool.Get().(*dispatchTask) }

func releaseTask(t *dispatchTask) {
	rc := t.sctx.replyContexts[:0]
	*t = dispatchTask{}
	t.sctx.replyContexts = rc
	taskPool.Put(t)
}

// classQueue is one class's FIFO of admitted tasks: a fixed circular
// buffer sized to the class's queue cap.
type classQueue struct {
	buf  []*dispatchTask
	head int
	n    int
}

func (q *classQueue) push(t *dispatchTask) {
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
}

func (q *classQueue) pop() *dispatchTask {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t
}

// admitResult is the outcome of offering a task to the pool.
type admitResult int

const (
	// admitQueued: the task is owned by the pool and will reach a worker.
	admitQueued admitResult = iota
	// admitRejected: fast-reject — the class's queue share is exhausted.
	// The caller sends the shed reply with a retry-after hint.
	admitRejected
	// admitCtxDead: the task's context died while it waited for space;
	// the caller runs the task inline so it takes the shed path.
	admitCtxDead
	// admitClosed: the pool is stopping; the caller runs the task inline
	// (the closed adapter answers OBJECT_NOT_EXIST).
	admitClosed
)

// workerPool is the ORB-wide bounded dispatch executor: a fixed set of
// workers draining per-class weighted queues shared by every adapter
// connection. It replaces the old single FIFO channel — dispatch order
// is now a QoS policy, not arrival order: weighted round-robin across
// priority classes while the queue is comfortable (batch is not starved),
// strict priority once it saturates (batch never runs while critical is
// queued), per-class queue caps so batch overload fast-rejects instead of
// crowding out interactive work.
type workerPool struct {
	size int
	wg   sync.WaitGroup
	// busy counts workers currently executing a dispatch — with size,
	// the worker-pool occupancy gauge the degradation controller needs.
	busy atomic.Int64

	qos QoSOptions

	mu       sync.Mutex
	notEmpty *sync.Cond // workers wait: something to dequeue
	notFull  *sync.Cond // blocking enqueuers wait: a slot freed (or ctx died)
	queues   [NumClasses]classQueue
	credit   [NumClasses]int
	capacity int
	caps     [NumClasses]int
	queued   int
	closed   bool
}

// poolSize resolves the worker count: WorkerPool wins, then a
// GOMAXPROCS-derived default with a floor that keeps blocking servants
// from serializing small machines.
func poolSize(opts *Options) int {
	if opts.WorkerPool > 0 {
		return opts.WorkerPool
	}
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// poolDepth resolves the total queue capacity: the explicit
// DispatchQueueDepth knob, else 16 slots per worker with a 256 floor.
func poolDepth(opts *Options, workers int) int {
	if opts.DispatchQueueDepth > 0 {
		return opts.DispatchQueueDepth
	}
	depth := 16 * workers
	if depth < 256 {
		depth = 256
	}
	return depth
}

func newWorkerPool(workers, depth int, qos QoSOptions) *workerPool {
	qos = qos.withDefaults()
	p := &workerPool{size: workers, capacity: depth, qos: qos}
	p.notEmpty = sync.NewCond(&p.mu)
	p.notFull = sync.NewCond(&p.mu)
	for c := 0; c < NumClasses; c++ {
		cap := depth
		if Priority(c) == ClassBatch {
			cap = depth / qos.BatchShare
			if cap < 1 {
				cap = 1
			}
		}
		p.caps[c] = cap
		p.queues[c].buf = make([]*dispatchTask, cap)
		p.credit[c] = qos.Weights[c]
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run()
	}
	return p
}

// enqueue offers t (class already stamped) to its class queue. Batch
// tasks past their cap — and any task past total capacity when the class
// is batch — are rejected immediately; critical and normal tasks block
// for a slot like the pre-QoS FIFO did, escaping when their context dies
// or the pool closes.
func (p *workerPool) enqueue(t *dispatchTask) admitResult {
	c := t.class
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return admitClosed
	}
	if p.queues[c].n >= p.caps[c] || p.queued >= p.capacity {
		if c == ClassBatch {
			p.mu.Unlock()
			return admitRejected
		}
		// The queue is full right now — the saturation signal the anomaly
		// sink watches for — but critical/normal requests wait their turn
		// rather than shed (pre-QoS admission semantics preserved).
		obs.Signal(obs.AnomalyQueueSaturated)
		// A context death cannot wake a cond wait on its own; hook the
		// broadcast up for the duration of the wait. This allocates, but
		// only on the saturated blocking path.
		stop := context.AfterFunc(t.rctx, p.notFull.Broadcast)
		for !p.closed && t.rctx.Err() == nil &&
			(p.queues[c].n >= p.caps[c] || p.queued >= p.capacity) {
			p.notFull.Wait()
		}
		stop()
		switch {
		case p.closed:
			p.mu.Unlock()
			return admitClosed
		case t.rctx.Err() != nil:
			p.mu.Unlock()
			return admitCtxDead
		}
	}
	p.queues[c].push(t)
	p.queued++
	p.notEmpty.Signal()
	p.mu.Unlock()
	return admitQueued
}

// saturated reports whether dequeue is in strict-priority territory:
// three quarters of the queue occupied.
func (p *workerPool) saturatedLocked() bool { return p.queued*4 >= p.capacity*3 }

// pickLocked chooses the next task per the QoS dequeue policy, or nil
// when every queue is empty.
func (p *workerPool) pickLocked() *dispatchTask {
	if p.queued == 0 {
		return nil
	}
	if p.saturatedLocked() {
		// Strict priority at saturation: batch is never dispatched while
		// a higher class has queued work.
		for _, c := range dispatchOrder {
			if p.queues[c].n > 0 {
				return p.popLocked(int(c))
			}
		}
		return nil
	}
	// Weighted round-robin with credits: classes spend their weight in
	// priority order; when every non-empty class is out of credit, all
	// credits replenish. Lower classes therefore get a bounded share even
	// under sustained higher-class traffic — until saturation flips the
	// policy above.
	for tries := 0; tries < 2; tries++ {
		for _, c := range dispatchOrder {
			if p.queues[c].n > 0 && p.credit[c] > 0 {
				p.credit[c]--
				return p.popLocked(int(c))
			}
		}
		for c := 0; c < NumClasses; c++ {
			p.credit[c] = p.qos.Weights[c]
		}
	}
	return nil
}

func (p *workerPool) popLocked(c int) *dispatchTask {
	t := p.queues[c].pop()
	p.queued--
	p.notFull.Broadcast()
	return t
}

// next blocks until a task is available or the pool is closed and
// drained (nil).
func (p *workerPool) next() *dispatchTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if t := p.pickLocked(); t != nil {
			return t
		}
		if p.closed {
			return nil
		}
		p.notEmpty.Wait()
	}
}

func (p *workerPool) run() {
	defer p.wg.Done()
	for {
		t := p.next()
		if t == nil {
			return
		}
		p.busy.Add(1)
		t.a.serveRequest(t)
		p.busy.Add(-1)
	}
}

// stop drains the pool: adapters have already waited for their tasks, so
// marking it closed lets every worker finish the backlog and exit.
func (p *workerPool) stop() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.notEmpty.Broadcast()
	p.notFull.Broadcast()
	p.wg.Wait()
}

// depth reports how many admitted requests are waiting for a worker.
func (p *workerPool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// classDepth reports one class's queued requests.
func (p *workerPool) classDepth(c Priority) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queues[c].n
}

// ensurePool lazily starts the dispatch pool (client-only ORBs never pay
// for it).
func (o *ORB) ensurePool() (*workerPool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.shutdown {
		return nil, CommFailure("orb is shut down")
	}
	if o.pool == nil {
		workers := poolSize(&o.opts)
		o.pool = newWorkerPool(workers, poolDepth(&o.opts, workers), o.opts.QoS)
	}
	return o.pool, nil
}
