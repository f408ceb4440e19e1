package runtime

import (
	"sync"

	"pado/internal/cluster"
	"pado/internal/recache"
)

// taskRef identifies one fragment task attempt within one stage
// generation of one job. Every executor-originated event carries a
// taskRef and the manager validates it against current state, so stale
// events from evicted containers or restarted stages are dropped
// harmlessly.
type taskRef struct {
	Job     int
	Stage   int
	Gen     int
	Frag    int
	Index   int
	Attempt int
}

// event is a manager event-loop message.
type event interface{}

type evContainerLaunched struct{ C *cluster.Container }

// evDetectorTick drives the failure detector's staleness sweep on the
// manager event loop, so detector state transitions are serialized with
// the recovery paths they trigger.
type evDetectorTick struct{}
type evContainerEvicted struct{ C *cluster.Container }
type evContainerFailed struct{ C *cluster.Container }

// evSubmit carries a new job into the manager loop for the admission
// decision.
type evSubmit struct{ j *jobRun }

// evCancelJob asks the manager to abandon one job (deadline expired or
// the submitter gave up); the job finishes with a timed-out result.
type evCancelJob struct{ ID int }

// evInspect asks the loop to build a consistent state snapshot and
// deliver it on reply (buffered, so the loop never blocks sending).
type evInspect struct{ reply chan *ManagerState }

// evReceiverReady reports that a reserved task is registered and can
// accept pushes.
type evReceiverReady struct {
	Job, Stage, Gen, Index int
}

// evReceiverFailed reports a reserved task error.
type evReceiverFailed struct {
	Job, Stage, Gen, Index int
	Exec                   string
	Err                    error
	Fatal                  bool
}

// evTaskComputed reports that a fragment task finished computing; its
// slot is free while the output escapes on a separate goroutine (§3.2.4).
type evTaskComputed struct {
	ref    taskRef
	Exec   string
	Cached []recache.Key
}

// evOutputCommitted reports that every receiver acknowledged one pushed
// frame set (§3.2.5). Cover lists the tasks whose output the frames carry —
// one for a raw or single-task push, several when the executor's
// aggregation buffer merged them (§3.2.7). The master applies it
// all-or-nothing: a frame is only ever processed by a receiver once every
// covered task is committed at the frame's attempt, so committing part of
// a cover would strand the data of the committed part.
type evOutputCommitted struct {
	Job, Stage, Gen, Frag int
	Cover                 []senderRef
}

// evTaskComputed and evOutputCommitted are the two per-task events every
// successful task emits, so they dominate event-channel allocation. They
// travel as pooled pointers: senders build them with newTaskComputed /
// newOutputCommitted, and the manager loop copies the value out and
// returns the struct (putTaskComputed / putOutputCommitted) before
// dispatching, so a handler can never observe reuse. The cover slice is
// the pushed frames' own and immutable, so the copy may alias it. A send
// dropped by a stopping executor simply leaks the struct to the GC.
var taskComputedPool = sync.Pool{New: func() any { return new(evTaskComputed) }}
var outputCommittedPool = sync.Pool{New: func() any { return new(evOutputCommitted) }}

func newTaskComputed(ref taskRef, exec string, cached []recache.Key) *evTaskComputed {
	e := taskComputedPool.Get().(*evTaskComputed)
	e.ref, e.Exec, e.Cached = ref, exec, cached
	return e
}

func putTaskComputed(e *evTaskComputed) {
	*e = evTaskComputed{}
	taskComputedPool.Put(e)
}

func newOutputCommitted(job, stage, gen, frag int, cover []senderRef) *evOutputCommitted {
	e := outputCommittedPool.Get().(*evOutputCommitted)
	e.Job, e.Stage, e.Gen, e.Frag, e.Cover = job, stage, gen, frag, cover
	return e
}

func putOutputCommitted(e *evOutputCommitted) {
	*e = evOutputCommitted{}
	outputCommittedPool.Put(e)
}

// evTaskFailed reports a fragment task error.
type evTaskFailed struct {
	ref   taskRef
	Exec  string
	Err   error
	Fatal bool
}

// evPullFailed reports that a receiver could not pull a skipped task's
// chunk from the commit store: the skip is reverted and the task runs.
type evPullFailed struct{ ref taskRef }

// evReservedTaskDone reports a finalized reserved task whose output
// partition now lives in its executor's local store. Chunk, when
// non-empty, is the content hash under which the partition's payload was
// also written to the commit store; the master assembles the per-stage
// chunk list into a commit manifest once the stage completes.
type evReservedTaskDone struct {
	Job, Stage, Gen, Index int
	Exec                   string
	Bytes                  int64
	Chunk                  string
}

// evResult carries a terminal transient task's output pushed to the
// master collector.
type evResult struct {
	Job, Stage, Gen, Index, Attempt int
	Payload                         []byte
}

// mailbox is an unbounded FIFO queue used for receiver messages, so the
// master's event loop never blocks while forwarding commits.
type mailbox struct {
	mu  sync.Mutex
	q   []any
	sig chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{sig: make(chan struct{}, 1)}
}

func (m *mailbox) put(v any) {
	m.mu.Lock()
	m.q = append(m.q, v)
	m.mu.Unlock()
	select {
	case m.sig <- struct{}{}:
	default:
	}
}

// tryGet returns the next queued message without blocking.
func (m *mailbox) tryGet() (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) == 0 {
		return nil, false
	}
	v := m.q[0]
	m.q = m.q[1:]
	return v, true
}

// get returns the next message, blocking until one arrives or either stop
// channel closes.
func (m *mailbox) get(stop1, stop2 <-chan struct{}) (any, bool) {
	for {
		m.mu.Lock()
		if len(m.q) > 0 {
			v := m.q[0]
			m.q = m.q[1:]
			m.mu.Unlock()
			return v, true
		}
		m.mu.Unlock()
		select {
		case <-m.sig:
		case <-stop1:
			return nil, false
		case <-stop2:
			return nil, false
		}
	}
}
