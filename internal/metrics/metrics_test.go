package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRelaunchRatio(t *testing.T) {
	var j Job
	if j.Snapshot(0, false).RelaunchRatio() != 0 {
		t.Error("empty job ratio should be 0")
	}
	j.Counter(NameOriginalTasks).Store(100)
	j.Counter(NameRelaunchedTasks).Store(31)
	if got := j.Snapshot(0, false).RelaunchRatio(); got != 0.31 {
		t.Errorf("ratio = %v", got)
	}
}

func TestSnapshot(t *testing.T) {
	var j Job
	j.Counter(NameOriginalTasks).Store(10)
	j.Counter(NameRelaunchedTasks).Store(5)
	j.Counter(NameEvictions).Store(3)
	j.Counter(NameBytesPushed).Store(100)
	j.Counter(NameBytesFetched).Store(200)
	j.Counter(NameBytesCheckpointed).Store(300)
	s := j.Snapshot(2*time.Second, true)
	if s.JCT != 2*time.Second || !s.TimedOut {
		t.Errorf("snapshot timing wrong: %+v", s)
	}
	if s.RelaunchRatio() != 0.5 {
		t.Errorf("snapshot ratio = %v", s.RelaunchRatio())
	}
	if s.BytesPushed != 100 || s.BytesFetched != 200 || s.BytesCheckpointed != 300 {
		t.Errorf("byte counters wrong: %+v", s)
	}
	if !strings.Contains(s.String(), "evictions=3") {
		t.Errorf("String missing fields: %s", s)
	}
}

// The paper's counters are plain named counters that Snapshot promotes to
// its fields (and keeps out of Named), and Each lists first, zero until
// counted.
func TestSnapshotPromotesPaperCounters(t *testing.T) {
	var j Job
	j.Counter(NameEvictions).Add(2)
	j.Counter(NameEvictions).Add(1)
	s := j.Snapshot(0, false)
	if s.Evictions != 3 || s.Named != nil {
		t.Errorf("evictions field %d, named %v; want 3 and no named counters", s.Evictions, s.Named)
	}
	var names []string
	j.Each(func(name string, v int64) { names = append(names, name) })
	if len(names) != len(paperCounters) || names[0] != NameOriginalTasks || names[2] != NameEvictions {
		t.Errorf("Each visited %v, want the paper counters in order", names)
	}
}

func TestRegistryNamedCounters(t *testing.T) {
	var j Job
	c1 := j.Counter("obs.push_started")
	c2 := j.Counter("obs.push_started")
	if c1 != c2 {
		t.Error("same name minted two counters")
	}
	c1.Add(7)
	s := j.Snapshot(0, false)
	if s.Named["obs.push_started"] != 7 {
		t.Errorf("snapshot Named = %v", s.Named)
	}

	var names []string
	j.Each(func(name string, v int64) { names = append(names, name) })
	if len(names) != len(paperCounters)+1 {
		t.Fatalf("Each visited %d counters: %v", len(names), names)
	}
	if names[len(names)-1] != "obs.push_started" {
		t.Errorf("named counter not last: %v", names)
	}
}

func TestRegistryConcurrentMint(t *testing.T) {
	var j Job
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				j.Counter("shared").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := j.Counter("shared").Load(); got != 800 {
		t.Errorf("lost updates on named counter: %d", got)
	}
}

func TestConcurrentCounters(t *testing.T) {
	var j Job
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				j.Counter(NameOriginalTasks).Add(1)
				j.Counter(NameBytesPushed).Add(2)
			}
		}()
	}
	wg.Wait()
	if s := j.Snapshot(0, false); s.OriginalTasks != 8000 || s.BytesPushed != 16000 {
		t.Errorf("lost updates: %d %d", s.OriginalTasks, s.BytesPushed)
	}
}
