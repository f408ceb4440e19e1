package runtime

import (
	"bytes"
	"fmt"

	"pado/internal/data"
	"pado/internal/storage"
)

// Progress is the master's execution-progress metadata (§3.2.6): the
// record of finished stages, their generations, and where their output
// partitions live. The master re-encodes and replicates it to reserved
// executors after every stage completion, so a replacement master can be
// launched to resume from the last available progress information
// instead of recomputing the whole job.
type Progress struct {
	Stages []StageProgress
}

// StageProgress records one stage's completion state.
type StageProgress struct {
	ID   int
	Gen  int
	Done bool
	// OutputExecs locates the stage's output partitions (empty for
	// incomplete or terminal-transient stages).
	OutputExecs []string
}

// DoneCount returns the number of completed stages.
func (p *Progress) DoneCount() int {
	n := 0
	for _, s := range p.Stages {
		if s.Done {
			n++
		}
	}
	return n
}

// progressBlockID names one job's replicated metadata block on reserved
// executors.
func progressBlockID(job int) string {
	return fmt.Sprintf("pado/progress/%d", job)
}

// Encode serializes the progress metadata.
func (p *Progress) Encode() ([]byte, error) {
	return data.Encoded(func(e *data.Encoder) error {
		if err := e.Uvarint(uint64(len(p.Stages))); err != nil {
			return err
		}
		for _, s := range p.Stages {
			e.Varint(int64(s.ID))
			e.Varint(int64(s.Gen))
			done := byte(0)
			if s.Done {
				done = 1
			}
			e.Byte(done)
			e.Uvarint(uint64(len(s.OutputExecs)))
			for _, x := range s.OutputExecs {
				if err := e.String(x); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// DecodeProgress parses metadata produced by Encode.
func DecodeProgress(b []byte) (*Progress, error) {
	d := data.NewDecoder(bytes.NewReader(b))
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("runtime: progress with %d stages", n)
	}
	p := &Progress{Stages: make([]StageProgress, n)}
	for i := range p.Stages {
		id, err := d.Varint()
		if err != nil {
			return nil, err
		}
		gen, err := d.Varint()
		if err != nil {
			return nil, err
		}
		done, err := d.Byte()
		if err != nil {
			return nil, err
		}
		ne, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if ne > 1<<20 {
			return nil, fmt.Errorf("runtime: progress stage with %d executors", ne)
		}
		execs := make([]string, ne)
		for j := range execs {
			if execs[j], err = d.String(); err != nil {
				return nil, err
			}
		}
		p.Stages[i] = StageProgress{ID: int(id), Gen: int(gen), Done: done == 1, OutputExecs: execs}
	}
	return p, nil
}

// snapshotProgress captures one job's current stage-completion state.
func (j *jobRun) snapshotProgress() *Progress {
	p := &Progress{Stages: make([]StageProgress, len(j.stages))}
	for i, s := range j.stages {
		p.Stages[i] = StageProgress{
			ID:          s.ps.ID,
			Gen:         s.gen,
			Done:        s.status == sDone,
			OutputExecs: append([]string(nil), s.outputExecs...),
		}
	}
	return p
}

// replicationFactor is how many reserved executors hold the progress
// metadata.
const replicationFactor = 2

// replicateProgress ships one job's current snapshot to reserved
// executors on a background goroutine (§3.2.6: "periodically replicating
// the progress metadata"). Failures are ignored: the snapshot is
// advisory and the next stage completion re-replicates.
func (jm *JobManager) replicateProgress(j *jobRun) {
	if len(jm.reservedOrder) == 0 {
		return // no replication targets; skip the snapshot allocation too
	}
	targets := make([]string, 0, replicationFactor)
	for i := 0; i < len(jm.reservedOrder) && i < replicationFactor; i++ {
		targets = append(targets, jm.reservedOrder[i])
	}
	snap := j.snapshotProgress()
	dp := jm.dp
	blockID := progressBlockID(j.id)
	go func() {
		payload, err := snap.Encode()
		if err != nil {
			return
		}
		for _, id := range targets {
			_ = storage.StoreBlock(dp, "progress", id, blockID, payload)
		}
	}()
}
