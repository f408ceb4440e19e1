package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"pado/internal/cluster"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/obs/analyze"
	"pado/internal/storage"
)

// bench runs one workload: closed loop, one job in flight, reps strictly
// sequential on this goroutine. The simulated cluster's goroutines are the
// system under test.
type bench struct {
	w    *workload
	cal  calib
	seed int64
	log  *spanLog // nil on the untraced pass

	in    inputs
	store *storage.CommitStore // the primed store of the delta workload
	runs  int64                // jobs run so far, warm-ups and priming included
}

// dataSeed derives the workload's data seed from the run's seed.
func (b *bench) dataSeed() int64 {
	for i, w := range ledgerWorkloads {
		if w == b.w {
			return b.seed*1_000_003 + int64(i)
		}
	}
	return b.seed
}

// rep is the outcome of one job.
type rep struct {
	err      error            // run error, abort, timeout or reference mismatch
	mismatch bool             // err is a failed reference check
	jctMin   float64          // as measured
	cpuS     float64          // getrusage user+sys over cluster build and job
	refs     [2]time.Duration // host-bound cells: hostReference before and after the job
	allocMB  float64          // MemStats.TotalAlloc over the same interval
	mallocsK float64
	gcCycles float64
	gcPause  float64 // ms
	snap     metrics.Snapshot
	cas      storage.CommitStats
	report   *analyze.Report // traced reps only
}

// refNominal is about what hostReference takes on the reference box. A
// normalised JCT is the JCT the job would have had with the host at that
// speed.
const refNominal = 4500 * time.Microsecond

// hostReference times a fixed piece of standard-library work: map inserts of
// formatted keys, a sort, a hash. The reference box changes speed by up to
// 30 % within minutes; a job that keeps both cores busy slows down with it,
// and so does this. No change to the repository can move it.
func hostReference() time.Duration {
	t0 := time.Now()
	m := make(map[string]int64)
	for i := 0; i < 40000; i++ {
		m[strconv.Itoa(i*7919%9000)] += int64(i)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	h.Sum(nil)
	return time.Since(t0)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes the next job. Run i uses cluster seed seed+7919*i and, on
// the delta workload, input salt i, so no rerun repeats the priming input.
func (b *bench) run(traced bool) rep {
	i := b.runs
	b.runs++
	root := b.log.root("rep")
	defer b.log.end(root)

	g := b.in.graph(i)
	store := b.store
	if b.w.store == storeFresh {
		store = storage.NewCommitStore()
	}

	var refs [2]time.Duration
	if b.w.hostBound {
		refs[0] = hostReference()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()

	sp := b.log.start("bench.cluster_new", root)
	cl, err := cluster.New(b.cal.clusterConfig(b.w.rate, b.seed+7919*i))
	b.log.end(sp)
	if err != nil {
		return rep{err: err}
	}
	var tracer *obs.Tracer
	if traced {
		tracer = obs.New()
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.cal.scale.Wall(b.cal.timeoutMin))
	name := "runtime.Run"
	if b.w.sparkCk {
		name = "sparklike.Run"
	}
	sp = b.log.start(name, root)
	res, err := b.cal.runJob(ctx, b.w, cl, g, tracer, store)
	b.log.end(sp)
	cancel()

	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if b.w.hostBound {
		refs[1] = hostReference()
	}
	if err != nil {
		return rep{err: err}
	}
	r := rep{
		jctMin:   b.cal.scale.Minutes(res.snap.JCT),
		cpuS:     cpu1 - cpu0,
		refs:     refs,
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocsK: float64(m1.Mallocs-m0.Mallocs) / 1e3,
		gcCycles: float64(m1.NumGC - m0.NumGC),
		gcPause:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		snap:     res.snap,
	}
	if store != nil {
		r.cas = store.Stats()
	}
	if res.snap.TimedOut {
		r.err = fmt.Errorf("timed out at %g paper minutes", b.cal.timeoutMin)
		return r
	}
	if traced {
		sp = b.log.start("analyze.Analyze", root)
		r.report = analyze.Analyze(tracer.Events(), analyze.Options{
			StageParents: res.stageParents,
			Scale:        analyze.ScaleInfo{WallPerMinute: b.cal.scale.WallPerMinute},
			JCT:          res.snap.JCT,
			Snapshot:     &res.snap,
		})
		b.log.end(sp)
	}
	sp = b.log.start("bench.verify", root)
	if err := b.in.verify(i, res.outputs); err != nil {
		r.err, r.mismatch = fmt.Errorf("reference check: %w", err), true
	}
	b.log.end(sp)
	return r
}

// setup is everything before the first timed rep: input and reference
// build, the delta workload's priming run, and the warm-up reps. Only a
// failed priming run stops the benchmark; warm-up results are discarded.
func (b *bench) setup() error {
	b.in = buildInputs(b.w, b.dataSeed())
	if b.w.store == storePrimed {
		b.store = storage.NewCommitStore()
		if r := b.run(false); r.err != nil {
			return fmt.Errorf("priming run: %w", r.err)
		}
	}
	for i := 0; i < b.w.warmups; i++ {
		b.run(false)
	}
	return nil
}

// maxTimeouts is how many reps of a run may hit the cell's 90-minute cap,
// 5.4 s of wall each, before the run stops measuring.
const maxTimeouts = 2

// measure runs reps back to back until those that did not hit the cap have
// taken up window, and at least three have succeeded, so that a run that
// loses reps to the cap still has as many samples as one that does not.
func (b *bench) measure(window time.Duration, traced bool) []rep {
	var reps []rep
	var used time.Duration
	for ok, timeouts := 0, 0; (ok < 3 || used < window) && timeouts < maxTimeouts; {
		t0 := time.Now()
		r := b.run(traced)
		reps = append(reps, r)
		if r.snap.TimedOut {
			timeouts++
			continue
		}
		used += time.Since(t0)
		if r.err == nil {
			ok++
		}
	}
	return reps
}

// outcome counts the reps of a run and keeps the message of each failure.
type outcome struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"` // no rep failed its reference check
	Errors    []string `json:"errors,omitempty"`
}

// tally counts reps and returns the successful ones; failures never enter
// a median.
func tally(o *outcome, reps []rep) []rep {
	var ok []rep
	for _, r := range reps {
		o.Attempted++
		if r.err == nil {
			ok = append(ok, r)
			continue
		}
		o.Failed++
		o.Errors = append(o.Errors, r.err.Error())
		if r.mismatch {
			o.Correct = false
		}
	}
	return ok
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return median(vs)
}

// hostRefs returns the reference samples of reps in milliseconds.
func hostRefs(reps []rep) []float64 {
	var ms []float64
	for _, r := range reps {
		ms = append(ms, float64(r.refs[0])/1e6, float64(r.refs[1])/1e6)
	}
	return ms
}

// hostScale is the factor that takes a time measured in reps to the nominal
// host speed: the nominal reference over the run's median reference on a
// host-bound cell, 1 on the others.
func (b *bench) hostScale(reps []rep) float64 {
	if !b.w.hostBound || len(reps) == 0 {
		return 1
	}
	return float64(refNominal) / 1e6 / median(hostRefs(reps))
}

func (b *bench) addEndToEnd(s samples, reps []rep) {
	scale := b.hostScale(reps)
	for _, r := range reps {
		s.add("jct_min", r.jctMin*scale)
		s.add("alloc_mb", r.allocMB)
	}
}

func ratio(num, den float64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// addCounters adds the per-layer rows that come from each rep's returned
// snapshot, commit-store stats and runtime deltas.
func (b *bench) addCounters(s samples, reps []rep) {
	const mb = 1e6
	if b.w.hostBound {
		s.add("bench.host_ref_ms", hostRefs(reps)...)
	}
	for _, r := range reps {
		n := func(name string) float64 { return float64(r.snap.Named[name]) }
		s.add("cluster.evictions", float64(r.snap.Evictions))
		s.add("bench.host_cpu_s", r.cpuS)
		if b.w.hostBound {
			s.add("bench.jct_raw_min", r.jctMin)
		}
		s.add("bench.gc_cycles", r.gcCycles)
		s.add("bench.gc_pause_ms", r.gcPause)
		s.add("bench.mallocs_k", r.mallocsK)
		if b.w.store != storeNone {
			s.add("storage.cas_chunks", float64(r.cas.Chunks))
			s.add("storage.cas_used_mb", float64(r.cas.UsedBytes)/mb)
		}
		if b.w.sparkCk {
			s.add("sparklike.tasks_original", float64(r.snap.OriginalTasks))
			s.add("sparklike.relaunch_ratio", r.snap.RelaunchRatio())
			s.add("sparklike.bytes_fetched_mb", float64(r.snap.BytesFetched)/mb)
			s.add("sparklike.bytes_checkpointed_mb", float64(r.snap.BytesCheckpointed)/mb)
			continue
		}
		s.add("runtime.tasks_original", float64(r.snap.OriginalTasks))
		s.add("runtime.relaunch_ratio", r.snap.RelaunchRatio())
		s.add("runtime.bytes_pushed_mb", float64(r.snap.BytesPushed)/mb)
		s.add("runtime.bytes_fetched_mb", float64(r.snap.BytesFetched)/mb)
		s.add("runtime.conn_dials", n(metrics.NameConnDials))
		if v, ok := ratio(n(metrics.NameConnReuses), n(metrics.NameConnDials)+n(metrics.NameConnReuses)); ok {
			s.add("runtime.conn_reuse_ratio", v)
		}
		s.add("runtime.rpc_retries", n(metrics.NameRPCRetries))
		s.add("runtime.rpc_backoff_wait_ms", n(metrics.NameRPCBackoffNS)/1e6)
		s.add("runtime.rpc_deadline_hits", n(metrics.NameRPCDeadlineHits))
		s.add("runtime.breaker_opens", n(metrics.NameBreakerOpens))
		s.add("runtime.heartbeats_missed", n(metrics.NameHeartbeatsMissed))
		s.add("runtime.nodes_declared_dead", n(metrics.NameNodesDeclaredDead))
		s.add("runtime.sched_rounds", n(metrics.NameSchedRounds))
		if v, ok := ratio(n(metrics.NameSchedTasksScanned), n(metrics.NameSchedRounds)); ok {
			s.add("runtime.sched_scanned_per_round", v)
		}
		s.add("runtime.slot_index_hits", n(metrics.NameSlotIndexHits))
		s.add("runtime.commit_probes", n(metrics.NameCommitProbes))
		if v, ok := ratio(n(metrics.NameCommitHits), n(metrics.NameCommitProbes)); ok {
			s.add("runtime.commit_hit_ratio", v)
		}
		s.add("runtime.tasks_skipped", n(metrics.NameTasksSkipped))
		s.add("runtime.commit_writes", n(metrics.NameCommitWrites))
		s.add("runtime.cas_served_mb", n(metrics.NameCASBytesServed)/mb)
		s.add("runtime.cas_written_mb", n(metrics.NameCASBytesWritten)/mb)
		if v, ok := ratio(float64(r.snap.CacheHits), float64(r.snap.CacheHits+r.snap.CacheMisses)); ok {
			s.add("recache.hit_ratio", v)
		}
	}
}

// addReports adds the rows that need a trace: the analyzer's critical path
// and waste, and the event counts the tracer mirrors into the snapshot.
func (b *bench) addReports(s samples, traced []rep) {
	const ms = 1e6
	for _, r := range traced {
		rp := r.report
		cp := rp.CritPath
		for _, class := range analyze.Classes {
			s.add("analyze.cp_"+class+"_ms", float64(cp.Class(class))/ms)
		}
		byNote := map[string]float64{"job_setup": 0, "task_queue": 0, "receiver_pull": 0, "receiver_merge": 0}
		var sum int64
		for _, seg := range cp.Segments {
			sum += seg.EndNS - seg.StartNS
			if _, ok := byNote[seg.Note]; ok {
				byNote[seg.Note] += float64(seg.EndNS-seg.StartNS) / ms
			}
		}
		for note, v := range byNote {
			s.add("analyze.cp_"+note+"_ms", v)
		}
		s.add("analyze.cp_tiling_err", math.Abs(float64(sum-rp.JCTNS))/float64(rp.JCTNS))
		w := rp.Waste
		s.add("analyze.waste_compute_ms", float64(w.ComputeLostNS+w.FailureComputeLostNS+w.RestartComputeLostNS)/ms)
		s.add("analyze.waste_pushed_mb", float64(w.BytesLost)/1e6)
		s.add("obs.events_per_job", float64(rp.Events))
		s.add("cluster.containers_up", float64(rp.Containers.Up))
		if !b.w.sparkCk {
			s.add("runtime.tasks_launched", float64(r.snap.Named["obs.task_launched"]))
		}
	}
	s.add("analyze.analyze_ms", b.log.durationsMS("analyze.Analyze")...)
}
