package runtime

import (
	"errors"
	"fmt"

	"pado/internal/data"
	"pado/internal/storage"
)

// Runtime ops. Block get/put is storage's block protocol, served on the
// same streams (storage.ServeBlocks); these are the ops only Pado has.
// Push and result are storage.Call rounds; the heartbeat is one-way.
const (
	framePush      = 'H' // pushFrame → (nothing); refused = the node hosts no such receiver
	frameResult    = 'R' // resultFrame → (nothing); never refused
	frameHeartbeat = 'B' // heartbeatFrame, no answer
)

// pushFrame is one boundary transfer to one reserved receiver task. It
// may cover several sender tasks when executor-level partial aggregation
// merged their outputs (§3.2.7); the receiver processes it only once
// every covered task's commit has arrived through the master (§3.2.5).
type pushFrame struct {
	Job      int
	Stage    int
	Gen      int
	RecvIdx  int
	Frag     int
	Cover    []senderRef // covered (task index, attempt) pairs
	Sections []pushSection
}

// senderRef identifies one sender task attempt.
type senderRef struct {
	Index   int
	Attempt int
}

// pushSection carries the payload of one boundary edge.
type pushSection struct {
	Tag        string
	Aggregated bool // payload is accumulator records, not raw records
	Payload    []byte
}

func writePushFrame(e *data.Encoder, f *pushFrame) error {
	e.Varint(int64(f.Job))
	e.Varint(int64(f.Stage))
	e.Varint(int64(f.Gen))
	e.Varint(int64(f.RecvIdx))
	e.Varint(int64(f.Frag))
	e.Uvarint(uint64(len(f.Cover)))
	for _, c := range f.Cover {
		e.Varint(int64(c.Index))
		e.Varint(int64(c.Attempt))
	}
	return writeSections(e, f.Sections)
}

func readPushFrame(d *data.Decoder) (*pushFrame, error) {
	f := &pushFrame{}
	v, err := d.Varint()
	if err != nil {
		return nil, err
	}
	f.Job = int(v)
	if v, err = d.Varint(); err != nil {
		return nil, err
	}
	f.Stage = int(v)
	if v, err = d.Varint(); err != nil {
		return nil, err
	}
	f.Gen = int(v)
	if v, err = d.Varint(); err != nil {
		return nil, err
	}
	f.RecvIdx = int(v)
	if v, err = d.Varint(); err != nil {
		return nil, err
	}
	f.Frag = int(v)
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("runtime: push cover %d too large", n)
	}
	f.Cover = make([]senderRef, 0, min(n, data.MaxPrealloc))
	for i := uint64(0); i < n; i++ {
		idx, err := d.Varint()
		if err != nil {
			return nil, err
		}
		at, err := d.Varint()
		if err != nil {
			return nil, err
		}
		f.Cover = append(f.Cover, senderRef{Index: int(idx), Attempt: int(at)})
	}
	if f.Sections, err = readSections(d); err != nil {
		return nil, err
	}
	return f, nil
}

// writeSections / readSections are the one codec of a section list: the
// tail of a push frame and a task commit's chunk are the same bytes. The
// chunk deliberately stops there: a pushFrame's head is job, generation
// and attempt — run-specific identity that would pollute content addresses
// and defeat cross-run dedup — so a receiver that pulls sections rebuilds
// the head from the commit message.
func writeSections(e *data.Encoder, secs []pushSection) error {
	e.Uvarint(uint64(len(secs)))
	for _, s := range secs {
		e.String(s.Tag)
		b := byte(0)
		if s.Aggregated {
			b = 1
		}
		e.Byte(b)
		if err := e.Bytes(s.Payload); err != nil {
			return err
		}
	}
	return nil
}

func readSections(d *data.Decoder) ([]pushSection, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("runtime: %d sections too large", n)
	}
	secs := make([]pushSection, 0, min(n, data.MaxPrealloc))
	for i := uint64(0); i < n; i++ {
		tag, err := d.String()
		if err != nil {
			return nil, err
		}
		agg, err := d.Byte()
		if err != nil {
			return nil, err
		}
		payload, err := d.Bytes(0)
		if err != nil {
			return nil, err
		}
		secs = append(secs, pushSection{Tag: tag, Aggregated: agg == 1, Payload: payload})
	}
	return secs, nil
}

// sectionsBlock is writeSections into a block.
func sectionsBlock(secs []pushSection) ([]byte, error) {
	return data.Encoded(func(e *data.Encoder) error { return writeSections(e, secs) })
}

// sendPush delivers a frame to the receiver's executor node and waits for
// the acknowledgement.
func sendPush(t storage.Transport, to string, f *pushFrame) error {
	err := storage.Call(t, "push", to, framePush,
		func(e *data.Encoder) error { return writePushFrame(e, f) }, nil, errPushRejected)
	if errors.Is(err, errPushRejected) {
		return fmt.Errorf("push to %s (stage %d recv %d): %w", to, f.Stage, f.RecvIdx, err)
	}
	return err
}

// errPushRejected is the refusal of a push by an executor that no longer
// hosts the receiver — a benign race with stage restarts or recovery.
var errPushRejected = errors.New("runtime: push rejected")

// resultFrame is a terminal-transient stage's output push to the master.
type resultFrame struct {
	Job     int
	Stage   int
	Gen     int
	Index   int
	Attempt int
	Payload []byte
}

func sendResult(t storage.Transport, masterID string, f *resultFrame) error {
	return storage.Call(t, "collect", masterID, frameResult,
		func(e *data.Encoder) error { return writeResultFrame(e, f) }, nil, errResultRejected)
}

func writeResultFrame(e *data.Encoder, f *resultFrame) error {
	e.Varint(int64(f.Job))
	e.Varint(int64(f.Stage))
	e.Varint(int64(f.Gen))
	e.Varint(int64(f.Index))
	e.Varint(int64(f.Attempt))
	return e.Bytes(f.Payload)
}

var errResultRejected = errors.New("runtime: result push rejected")

func readResultFrame(d *data.Decoder) (*resultFrame, error) {
	f := &resultFrame{}
	v, err := d.Varint()
	if err != nil {
		return nil, err
	}
	f.Job = int(v)
	if v, err = d.Varint(); err != nil {
		return nil, err
	}
	f.Stage = int(v)
	if v, err = d.Varint(); err != nil {
		return nil, err
	}
	f.Gen = int(v)
	if v, err = d.Varint(); err != nil {
		return nil, err
	}
	f.Index = int(v)
	if v, err = d.Varint(); err != nil {
		return nil, err
	}
	f.Attempt = int(v)
	if f.Payload, err = d.Bytes(0); err != nil {
		return nil, err
	}
	return f, nil
}

// heartbeatFrame is one executor liveness beat. Open lists destinations
// the sender's circuit breakers currently hold open or probing — the
// gray-failure signal the master's detector aggregates across reporters.
// Heartbeats are fire-and-forget: no response byte, so a slow master
// never backpressures the sender's beat cadence.
type heartbeatFrame struct {
	ID   string
	Seq  int
	Open []string
}

func writeHeartbeat(e *data.Encoder, f *heartbeatFrame) error {
	if err := e.Byte(frameHeartbeat); err != nil {
		return err
	}
	if err := e.String(f.ID); err != nil {
		return err
	}
	e.Uvarint(uint64(f.Seq))
	e.Uvarint(uint64(len(f.Open)))
	for _, d := range f.Open {
		if err := e.String(d); err != nil {
			return err
		}
	}
	return e.Flush()
}

func readHeartbeat(d *data.Decoder) (*heartbeatFrame, error) {
	f := &heartbeatFrame{}
	var err error
	if f.ID, err = d.String(); err != nil {
		return nil, err
	}
	seq, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	f.Seq = int(seq)
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("runtime: heartbeat with %d open dests", n)
	}
	if n > 0 {
		f.Open = make([]string, 0, min(n, data.MaxPrealloc))
	}
	for i := uint64(0); i < n; i++ {
		dest, err := d.String()
		if err != nil {
			return nil, err
		}
		f.Open = append(f.Open, dest)
	}
	return f, nil
}

// stageBlockID names a stage-output partition block. Block names are
// scoped by job so concurrent jobs sharing a container's local store
// never collide, and include the stage generation so recomputed outputs
// never collide with stale blocks.
func stageBlockID(job, stage, gen, part int) string {
	return fmt.Sprintf("so/%d/%d/%d/%d", job, stage, gen, part)
}
