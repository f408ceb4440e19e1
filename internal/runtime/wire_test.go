package runtime

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"pado/internal/cluster"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/simnet"
	"pado/internal/storage"
	"pado/internal/storage/blocktest"
)

// frameBytes is what follows the op byte of a push round.
func frameBytes(f *pushFrame) ([]byte, error) {
	return data.Encoded(func(e *data.Encoder) error { return writePushFrame(e, f) })
}

func TestPushFrameRoundTrip(t *testing.T) {
	in := &pushFrame{
		Stage: 3, Gen: 2, RecvIdx: 1, Frag: 0,
		Cover: []senderRef{{Index: 5, Attempt: 1}, {Index: 9, Attempt: 0}},
		Sections: []pushSection{
			{Tag: "", Aggregated: true, Payload: []byte("acc-data")},
			{Tag: "side", Aggregated: false, Payload: nil},
		},
	}
	blob, err := frameBytes(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readPushFrame(data.NewDecoder(bytes.NewReader(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage != in.Stage || out.Gen != in.Gen || out.RecvIdx != in.RecvIdx || out.Frag != in.Frag {
		t.Errorf("header mismatch: %+v", out)
	}
	if !reflect.DeepEqual(out.Cover, in.Cover) {
		t.Errorf("cover = %+v", out.Cover)
	}
	if len(out.Sections) != 2 || out.Sections[0].Tag != "" || !out.Sections[0].Aggregated ||
		string(out.Sections[0].Payload) != "acc-data" || out.Sections[1].Tag != "side" {
		t.Errorf("sections = %+v", out.Sections)
	}
}

func TestPushFrameRoundTripProperty(t *testing.T) {
	err := quick.Check(func(stage, gen, recv, frag uint8, idx []uint8, payload []byte) bool {
		in := &pushFrame{Stage: int(stage), Gen: int(gen), RecvIdx: int(recv), Frag: int(frag)}
		for i, v := range idx {
			in.Cover = append(in.Cover, senderRef{Index: int(v), Attempt: i % 3})
		}
		in.Sections = []pushSection{{Tag: "t", Payload: payload}}
		blob, err := frameBytes(in)
		if err != nil {
			return false
		}
		out, err := readPushFrame(data.NewDecoder(bytes.NewReader(blob)))
		if err != nil {
			return false
		}
		return out.Stage == in.Stage && len(out.Cover) == len(in.Cover) &&
			bytes.Equal(out.Sections[0].Payload, payload)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestResultFrameRoundTrip(t *testing.T) {
	in := &resultFrame{Job: 3, Stage: 4, Gen: 2, Index: 7, Attempt: 1, Payload: []byte{1, 2, 3}}
	blob, err := data.Encoded(func(e *data.Encoder) error { return writeResultFrame(e, in) })
	if err != nil {
		t.Fatal(err)
	}
	out, err := readResultFrame(data.NewDecoder(bytes.NewReader(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Job != 3 || out.Stage != 4 || out.Gen != 2 || out.Index != 7 || out.Attempt != 1 || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("got %+v", out)
	}
}

// TestSectionsCodecRoundTrip pins the one section-list codec: a task
// commit's chunk and a pull-mode task's parked block decode back to the
// sections, and are byte for byte the tail of the push frame that carries
// the same sections.
func TestSectionsCodecRoundTrip(t *testing.T) {
	secs := []pushSection{
		{Tag: "", Aggregated: false, Payload: []byte("hello")},
		{Tag: "side", Aggregated: true, Payload: nil},
		{Tag: "x", Aggregated: false, Payload: []byte{0, 1, 2, 255}},
	}
	block, err := sectionsBlock(secs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readSections(data.NewDecoder(bytes.NewReader(block)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(secs) {
		t.Fatalf("got %d sections, want %d", len(got), len(secs))
	}
	for i, s := range secs {
		g := got[i]
		if g.Tag != s.Tag || g.Aggregated != s.Aggregated || string(g.Payload) != string(s.Payload) {
			t.Errorf("section %d: got %+v want %+v", i, g, s)
		}
	}
	frame, err := frameBytes(&pushFrame{Job: 4, Stage: 1, Gen: 2, Cover: []senderRef{{Index: 2, Attempt: 1}}, Sections: secs})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(frame, block) {
		t.Error("a sections block is not the tail of the push frame carrying the same sections")
	}
}

func TestBlockIDs(t *testing.T) {
	if stageBlockID(1, 1, 2, 3) == stageBlockID(1, 1, 3, 3) {
		t.Error("generation not encoded in block id")
	}
	if taskBlockID(1, 1, 1, 0, 2, 0, 3) == taskBlockID(1, 1, 1, 0, 2, 1, 3) {
		t.Error("attempt not encoded in task block id")
	}
	if stageBlockID(1, 2, 3, 4) == stageBlockID(2, 2, 3, 4) {
		t.Error("job not encoded in stage block id")
	}
	if taskBlockID(1, 1, 1, 0, 2, 0, 3) == taskBlockID(2, 1, 1, 0, 2, 0, 3) {
		t.Error("job not encoded in task block id")
	}
}

// TestNodeHostDataPlane: a node host answers the shared block protocol
// (the conformance table every ServeBlocks host runs) and, on the same
// streams, boundary pushes — rejected with a marked reply while no
// executor hosts the receiver, which keeps the sender's stream pooled.
func TestNodeHostDataPlane(t *testing.T) {
	net := simnet.New(simnet.Config{})
	node, err := net.AddNode("r1")
	if err != nil {
		t.Fatal(err)
	}
	h, err := newNodeHost(&cluster.Container{ID: "r1", Kind: cluster.Reserved, Node: node, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.shutdown()
	blocktest.Drive(t, net, "r1")
	if got, ok := h.store.Get("k"); !ok || string(got) != "v2" {
		t.Errorf("host store holds %q, %v after the table", got, ok)
	}

	if _, err := net.AddNode("client"); err != nil {
		t.Fatal(err)
	}
	met := &metrics.Job{}
	dp := newDataPlane(net, "client", met, nil)
	defer dp.pool.Close()
	f := &pushFrame{Stage: 1, Gen: 7, Cover: []senderRef{{Index: 0, Attempt: 0}},
		Sections: []pushSection{{Payload: []byte("x")}}}
	for i := 0; i < 2; i++ {
		err := sendPush(dp, "r1", f)
		if !errors.Is(err, errPushRejected) || !storage.IsReply(err) || isFatal(err) {
			t.Fatalf("push %d: err = %v, want a non-fatal errPushRejected reply", i, err)
		}
	}
	if d := met.Counter(metrics.NameConnDials).Load(); d != 1 {
		t.Errorf("conn_dials = %d, want 1 (a rejected push must not cost the stream)", d)
	}
	if open := dp.openDests(); len(open) != 0 {
		t.Error("rejected pushes counted against the destination's breaker")
	}
	if _, err := storage.FetchBlock(dp, "fetch", "nonexistent", "x"); err == nil || isFatal(err) {
		t.Errorf("fetch from an unknown node: err = %v, want a transient dial error", err)
	}
}

func TestBoundaryPartition(t *testing.T) {
	rec := data.KV("key", int64(1))
	if boundaryPartition(dag.ManyToOne, rec, 5, 1) != 0 {
		t.Error("many-to-one must route to task 0")
	}
	p := boundaryPartition(dag.ManyToMany, rec, 5, 4)
	if p < 0 || p >= 4 {
		t.Errorf("many-to-many partition %d out of range", p)
	}
	if boundaryPartition(dag.OneToOne, rec, 2, 4) != 2 {
		t.Error("one-to-one must preserve task index")
	}
	if boundaryPartition(dag.OneToOne, rec, 6, 4) != 2 {
		t.Error("one-to-one must wrap when receivers are fewer")
	}
}
