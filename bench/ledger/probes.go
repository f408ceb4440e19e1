package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"pado/internal/core"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/exec"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// probes runs the micro-probes of the traced pass: spans the benchmark
// records around exported calls of one layer, on this workload's own
// records, coders and plan and at the cell's bandwidth and latency. Each
// probe is a root span of its own; each timed call is one sample.
func (b *bench) probes(s samples) error {
	for _, p := range []struct {
		name string
		run  func(samples) error
	}{
		{"probe.plan", b.probePlan},
		{"probe.simnet", b.probeSimnet},
		{"probe.storage", b.probeStorage},
	} {
		sp := b.log.root(p.name)
		err := p.run(s)
		b.log.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

func since(t0 time.Time, unit time.Duration) float64 {
	return float64(time.Since(t0)) / float64(unit)
}

// probePlan covers core, exec and data: it compiles the workload's DAG,
// runs the plan's first source fragment over a few partitions, and pushes
// the fragment's boundary records through the combine table, the coder and
// the partitioner, as a task and its receiver would.
func (b *bench) probePlan(s samples) error {
	var plan *core.Plan
	for i := 0; i < 15; i++ {
		g := b.in.graph(b.runs)
		t0 := time.Now()
		p, err := core.Compile(g, b.cal.planConfig(b.w))
		if err != nil {
			return err
		}
		// The Spark-like engine has its own planner; its workload only
		// borrows the compiled plan to find the fused source chain.
		if !b.w.sparkCk {
			s.add("core.compile_us", since(t0, time.Microsecond))
		}
		plan = p
	}
	if !b.w.sparkCk {
		tasks := 0
		for _, st := range plan.Stages {
			for _, f := range st.Fragments {
				tasks += f.Parallelism
			}
			if st.RootReserved {
				tasks += st.RootParallelism
			}
		}
		s.add("core.plan_stages", float64(len(plan.Stages)))
		s.add("core.plan_tasks", float64(tasks))
	}

	g := plan.Graph
	stage, frag, inputsFor := sourceFragment(plan)
	if frag == nil || len(frag.Boundaries) == 0 {
		return fmt.Errorf("plan has no source fragment with a boundary")
	}
	boundary := g.Vertex(frag.Boundaries[0].From)
	coder, err := dataflow.OutputCoder(boundary)
	if err != nil {
		return err
	}
	combine, _ := g.Vertex(stage.Root).Op.(*dataflow.CombineOp)
	reducers := b.cal.planConfig(b.w).ReduceParallelism

	// The fan-out workload has a tenth of the records per partition.
	parts := min(frag.Parallelism, 4*max(b.w.fanout, 1))
	for part := 0; part < parts; part++ {
		t0 := time.Now()
		outs, err := exec.RunFragment(g, frag.Ops, inputsFor(part))
		if err != nil {
			return err
		}
		read := float64(len(outs[frag.Ops[0]]))
		s.add("exec.fragment_ns_per_rec", since(t0, time.Nanosecond)/read)

		recs := outs[boundary.ID]
		n := float64(len(recs))
		if n == 0 {
			continue
		}
		if combine != nil {
			t0 = time.Now()
			local := exec.NewAccTable(combine.Fn, combine.Global)
			for _, r := range recs {
				local.AddRecord(r)
			}
			merged := exec.NewAccTable(combine.Fn, combine.Global)
			for _, r := range local.AccRecords() {
				merged.MergeAcc(r.Key, r.Value)
			}
			merged.Extract()
			s.add("exec.acc_merge_ns_per_rec", since(t0, time.Nanosecond)/n)
		}

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		enc, err := data.EncodeAll(coder, recs)
		encNS := since(t0, time.Nanosecond)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		s.add("data.encode_ns_per_rec", encNS/n)
		s.add("data.encode_allocs_per_rec", float64(m1.Mallocs-m0.Mallocs)/n)

		t0 = time.Now()
		if _, err := data.DecodeAll(coder, enc); err != nil {
			return err
		}
		s.add("data.decode_ns_per_rec", since(t0, time.Nanosecond)/n)

		t0 = time.Now()
		for _, r := range recs {
			data.Partition(r.Key, reducers)
		}
		s.add("data.partition_ns_per_rec", since(t0, time.Nanosecond)/n)
	}
	return nil
}

// sourceFragment finds the plan's first fragment that starts at a source
// and whose side inputs are all in-memory creates, and returns how to build
// the inputs to run it on one partition.
func sourceFragment(plan *core.Plan) (*core.PhysStage, *core.Fragment, func(part int) exec.Inputs) {
	g := plan.Graph
next:
	for _, st := range plan.Stages {
		for _, f := range st.Fragments {
			rd, ok := g.Vertex(f.Ops[0]).Op.(*dataflow.ReadOp)
			if !ok {
				continue
			}
			sides := make(map[dag.VertexID]map[string][]data.Record)
			for _, op := range f.Ops {
				for _, si := range st.InputsTo(op) {
					cr, ok := g.Vertex(si.FromVertex).Op.(*dataflow.CreateOp)
					if !ok || si.Dep != dag.OneToMany {
						continue next
					}
					sides[op] = map[string][]data.Record{si.Tag: cr.Records}
				}
			}
			return st, f, func(part int) exec.Inputs {
				return exec.Inputs{
					Read: map[dag.VertexID]func() (dataflow.Iterator, error){
						f.Ops[0]: func() (dataflow.Iterator, error) { return rd.Source.Open(part) },
					},
					Sides: sides,
				}
			}
		}
	}
	return nil, nil, nil
}

// probeSimnet measures two nodes at the cell's bandwidth and latency: a
// dial, a round trip, and how close a 1 MiB transfer comes to the time the
// link's rate and latency allow.
func (b *bench) probeSimnet(s samples) error {
	net := simnet.New(simnet.Config{Latency: b.cal.latency})
	if _, err := net.AddNodeBW("t", b.cal.transientBW, b.cal.transientBW); err != nil {
		return err
	}
	r, err := net.AddNodeBW("r", b.cal.reservedBW, b.cal.reservedBW)
	if err != nil {
		return err
	}
	defer net.RemoveNode("t")
	defer net.RemoveNode("r")
	l, err := r.Listen()
	if err != nil {
		return err
	}
	// The server acknowledges each length-prefixed message with one byte;
	// its loops end when the nodes are removed.
	go func() {
		for {
			c, err := l.Accept(r.Down())
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var hdr [4]byte
				for {
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					if _, err := io.CopyN(io.Discard, c, int64(binary.BigEndian.Uint32(hdr[:]))); err != nil {
						return
					}
					if _, err := c.Write(hdr[:1]); err != nil {
						return
					}
				}
			}()
		}
	}()

	send := func(c *simnet.Conn, n int) error {
		msg := make([]byte, 4+n)
		binary.BigEndian.PutUint32(msg, uint32(n))
		if _, err := c.Write(msg); err != nil {
			return err
		}
		_, err := io.ReadFull(c, msg[:1])
		return err
	}
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		c, err := net.Dial("t", "r")
		if err != nil {
			return err
		}
		s.add("simnet.dial_us", since(t0, time.Microsecond))
		t0 = time.Now()
		if err := send(c, 0); err != nil {
			return err
		}
		s.add("simnet.rtt_us", since(t0, time.Microsecond))
		c.Close()
	}
	c, err := net.Dial("t", "r")
	if err != nil {
		return err
	}
	defer c.Close()
	// A first transfer empties the token buckets, which start full, so the
	// timed one runs at the link's rate.
	if err := send(c, 256<<10); err != nil {
		return err
	}
	const size = 1 << 20
	ideal := time.Duration(float64(size)/float64(min(b.cal.transientBW, b.cal.reservedBW))*float64(time.Second)) + 2*b.cal.latency
	t0 := time.Now()
	if err := send(c, size); err != nil {
		return err
	}
	s.add("simnet.xfer_eff", float64(ideal)/float64(time.Since(t0)))
	return nil
}

// probeStorage times 64 KiB operations over a pooled transport from a node
// with a reserved container's bandwidth: stable storage on the checkpointing
// workload, the commit store on the workloads that use one, each service
// set up as its engine sets it up.
func (b *bench) probeStorage(s samples) error {
	net := simnet.New(simnet.Config{Latency: b.cal.latency})
	ids := []string{"client", "cas", "stable"}
	bws := []int64{b.cal.reservedBW, 0, b.cal.reservedBW} // the commit plane's nodes are unmetered
	nodes := make([]*simnet.Node, len(ids))
	for i, id := range ids {
		n, err := net.AddNodeBW(id, bws[i], bws[i])
		if err != nil {
			return err
		}
		defer net.RemoveNode(id)
		nodes[i] = n
	}
	t := storage.NewPoolTransport(net, "client")
	defer t.Close()

	const ops, size = 8, 64 << 10
	rng := rand.New(rand.NewSource(b.seed))
	payloads := make([][]byte, ops)
	for i := range payloads {
		payloads[i] = make([]byte, size)
		rng.Read(payloads[i])
	}
	timed := func(name string, op func(i int) error) error {
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			if err := op(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			s.add(name, since(t0, time.Microsecond))
		}
		return nil
	}

	if b.w.sparkCk {
		stableSvc := storage.NewServiceDisk(nodes[2:3], b.cal.storageDiskBW)
		if err := stableSvc.Start(); err != nil {
			return err
		}
		// storage.Service has no Close: its accept loops end when the
		// deferred RemoveNode above takes its node away.
		stable := storage.NewClientTransport(t, stableSvc)
		if err := timed("storage.stable_put_us", func(i int) error {
			return stable.Put(fmt.Sprint("block", i), payloads[i])
		}); err != nil {
			return err
		}
		return timed("storage.stable_get_us", func(i int) error {
			_, err := stable.Get(fmt.Sprint("block", i))
			return err
		})
	}
	if b.w.store == storeNone {
		return nil
	}

	casSvc := storage.NewCommitService(storage.NewCommitStore(), nodes[1:2])
	if err := casSvc.Start(); err != nil {
		return err
	}
	defer casSvc.Close()
	cas := storage.NewCommitClient(t, casSvc.NodeIDs())
	hashes := make([]string, ops)
	if err := timed("storage.cas_put_us", func(i int) (err error) {
		hashes[i], err = cas.PutChunk(payloads[i])
		return err
	}); err != nil {
		return err
	}
	if err := cas.Commit(&storage.Manifest{Key: "probe", Parts: [][]string{hashes}}); err != nil {
		return err
	}
	if err := timed("storage.cas_resolve_us", func(int) error {
		_, err := cas.Resolve("probe", false)
		return err
	}); err != nil {
		return err
	}
	return timed("storage.cas_get_us", func(i int) error {
		_, err := cas.GetChunk(hashes[i])
		return err
	})
}
