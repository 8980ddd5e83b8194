package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/obs/trace"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// opResult is one measured sweep operation.
type opResult struct {
	Due, Sent, Done time.Time
	Cells           int
	Instrs          float64
	Err             error
}

// outcome is what one pass of a workload measured.
type outcome struct {
	setups []time.Duration
	// ops are the workload's measured sweeps; extra counts secondary
	// operations (verified and counted as attempted, not timed).
	ops                      []opResult
	extraAttempted, extraErr int
	firstErr                 error
	openLoop                 bool
	limit                    time.Duration // goodput latency limit
	late                     []time.Duration
	hybrid                   float64
	sampledErr               []float64
}

func (o *outcome) fail(err error) {
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// runCtx is one pass's configuration and the traced pass's collectors.
type runCtx struct {
	ref     *Reference
	seed    int64
	seconds float64
	rec     *recorder // nil: untraced
	svc     *svcStats // nil: untraced
}

func (rc *runCtx) traced() bool { return rc.rec != nil }

// svcStats accumulates the service side of a traced pass over every
// node and measured phase it ran.
type svcStats struct {
	counters
	attrib        []trace.Attribution
	sampledCells  []float64 // harness.RunSampledCell host ms per simulated cell
	detailedCells []float64 // harness.RunCell host ms per simulated cell
}

// counters are the service counters a traced pass reports, summed over
// nodes.
type counters struct {
	hits, misses, executed, deduped, journal, retries float64
	peerHits, proxied, stolen, leaseExpiries          float64
}

func readCounters(nodes []*node) counters {
	var c counters
	for _, n := range nodes {
		m := n.svc.Snapshot()
		c.hits += float64(m.CacheHits)
		c.misses += float64(m.CacheMisses)
		c.executed += float64(m.RunsExecuted)
		c.deduped += float64(m.RunsDeduped)
		c.journal += float64(m.JournalAppends)
		c.retries += float64(m.Retries)
		c.peerHits += float64(m.PeerHits)
		var text bytes.Buffer
		n.svc.Registry().WriteText(&text)
		c.proxied += promValue(text.String(), "sdo_cluster_proxied_requests_total")
		c.stolen += promValue(text.String(), "sdo_cluster_cells_stolen_total")
		c.leaseExpiries += promValue(text.String(), "sdo_cluster_lease_expiries_total")
	}
	return c
}

// measure marks the start of a traced pass's measured phase on nodes. The
// returned function, called before the nodes close, adds the counter
// deltas since the mark to rc.svc and turns the cell traces of the jobs
// submitted since the mark into spans.
func (rc *runCtx) measure(nodes ...*node) func() {
	if !rc.traced() {
		return func() {}
	}
	before := readCounters(nodes)
	seen := map[*simsvc.Job]bool{}
	for _, n := range nodes {
		for _, j := range n.svc.Jobs() {
			seen[j] = true
		}
	}
	return func() {
		after := readCounters(nodes)
		st := rc.svc
		st.hits += after.hits - before.hits
		st.misses += after.misses - before.misses
		st.executed += after.executed - before.executed
		st.deduped += after.deduped - before.deduped
		st.journal += after.journal - before.journal
		st.retries += after.retries - before.retries
		st.peerHits += after.peerHits - before.peerHits
		st.proxied += after.proxied - before.proxied
		st.stolen += after.stolen - before.stolen
		st.leaseExpiries += after.leaseExpiries - before.leaseExpiries
		for _, n := range nodes {
			for _, j := range n.svc.Jobs() {
				if !seen[j] {
					rc.addJobTrace(n, j)
				}
			}
		}
	}
}

// addJobTrace records a job's per-cell attributions and phase spans.
func (rc *runCtx) addJobTrace(n *node, j *simsvc.Job) {
	doc := j.Trace().Doc()
	if doc == nil {
		return
	}
	st := rc.svc
	sampled := j.Options().SimMode == harness.SimSampled
	for _, c := range doc.Cells {
		if a := c.Attribution; a != nil {
			st.attrib = append(st.attrib, *a)
			if a.SimulateUS > 0 {
				if sampled {
					st.sampledCells = append(st.sampledCells, float64(a.SimulateUS)/1000)
				} else {
					st.detailedCells = append(st.detailedCells, float64(a.SimulateUS)/1000)
				}
			}
		}
		if c.Spans == nil {
			continue
		}
		for _, ph := range c.Spans.Children {
			start := doc.Epoch.Add(time.Duration(ph.StartUS) * time.Microsecond)
			rc.rec.add(span{
				Name:  "simsvc." + ph.Name,
				Start: start,
				End:   start.Add(time.Duration(ph.DurUS) * time.Microsecond),
				Work:  ph.Name != trace.PhaseQueue && ph.Name != trace.PhaseAwait,
				Attrs: map[string]string{"node": n.id},
			})
		}
	}
}

// promValue reads one unlabelled sample from Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// setupReps is how many times a cheap set-up step (the reference load, a
// service start) repeats; setup_s takes the median.
const setupReps = 15

// timedSetup runs fn reps times, keeps the last result and closes the
// others, recording each set-up's duration.
func timedSetup[T any](o *outcome, reps int, fn func() (T, error), closeFn func(T)) (T, error) {
	var last T
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := fn()
		if err != nil {
			return last, err
		}
		o.setups = append(o.setups, time.Since(start))
		if i < reps-1 {
			closeFn(v)
		} else {
			last = v
		}
	}
	return last, nil
}

// closedSweep POSTs one sweep, fetches and verifies its export, and
// records the operation.
func (rc *runCtx) closedSweep(o *outcome, c *client, submitTo, exportFrom string, b Budget,
	workloads, vs, ms []string) (string, *Verified, error) {
	op := opResult{Sent: time.Now()}
	op.Due = op.Sent
	id, v, err := rc.sweep(c, submitTo, exportFrom, b, workloads, vs, ms)
	op.Done = time.Now()
	op.Err = err
	if v != nil {
		op.Cells = len(v.Export.Runs)
		op.Instrs = answeredInstrs(v)
	}
	o.ops = append(o.ops, op)
	if err != nil {
		o.fail(err)
	}
	return id, v, err
}

// sweep is submit → export → verify.
func (rc *runCtx) sweep(c *client, submitTo, exportFrom string, b Budget, workloads, vs, ms []string) (string, *Verified, error) {
	id, err := c.submit(submitTo, b.request(workloads, vs, ms))
	if err != nil {
		return "", nil, err
	}
	body, err := c.export(exportFrom, id)
	if err != nil {
		return id, nil, err
	}
	var v *Verified
	rc.rec.time("bench.verify", true, func() { v, err = rc.ref.verify(body, b, workloads, vs, ms) })
	if err != nil {
		return id, nil, err
	}
	return id, v, c.finished(submitTo, id)
}

var bothModels = []string{"spectre", "futuristic"}

// paperGrid: one full Table II × both-models sweep of a seeded kernel set
// at the paper budget, against a fresh service, over HTTP.
func paperGrid(rc *runCtx) (*outcome, error) {
	o := &outcome{limit: 120 * time.Second}
	kernels := paperGridKernels(rand.New(rand.NewSource(rc.seed)))
	n, err := timedSetup(o, setupReps, func() (*node, error) {
		return startService(simsvc.Config{Workers: 2, Trace: rc.traced()}, rc.rec)
	}, (*node).close)
	if err != nil {
		return nil, err
	}
	defer n.close()
	c := newClient()
	defer c.close()
	done := rc.measure(n)
	_, v, err := rc.closedSweep(o, c, n.url(), n.url(), paperBudget, kernels, allVariantReqs(), bothModels)
	if err == nil {
		if err := rc.ref.checkFig6(v, kernels); err != nil {
			o.ops[0].Err = err
			o.fail(err)
		}
		o.hybrid = hybridOverheadPct(v, kernels)
	}
	done()
	return o, nil
}

// sampledGrid: repeated cold services, each answering one sampled sweep
// of the whole suite (Unsafe and Hybrid under Spectre) with a seeded
// sampling seed, until the run's time is up. The first sweeps use each
// sampling seed once; the result metrics come from those alone, so they
// do not depend on how many sweeps the host fits in the run.
func sampledGrid(rc *runCtx) (*outcome, error) {
	o := &outcome{limit: 30 * time.Second}
	rng := rand.New(rand.NewSource(rc.seed))
	c := newClient()
	defer c.close()
	vs := []string{"unsafe", "hybrid"}
	newService := func() (*node, error) {
		return startService(simsvc.Config{Workers: 2, Trace: rc.traced()}, rc.rec)
	}
	n, err := timedSetup(o, setupReps, newService, (*node).close)
	if err != nil {
		return nil, err
	}
	first := rng.Intn(len(sampledSeeds))
	hybrid := make([]float64, len(sampledSeeds))
	errs := make([][]float64, len(sampledSeeds))
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for i := 0; i < len(sampledSeeds) || time.Now().Before(deadline); i++ {
		if i > 0 {
			if n, err = newService(); err != nil {
				return nil, err
			}
		}
		kernels := shuffledKernels(rng)
		b := sampledGridBudget(first, i)
		done := rc.measure(n)
		_, v, err := rc.closedSweep(o, c, n.url(), n.url(), b, kernels, vs, []string{"spectre"})
		if s := (first + i) % len(sampledSeeds); err == nil && i < len(sampledSeeds) {
			hybrid[s] = hybridOverheadPct(v, workload.Names())
			for _, r := range v.Export.Runs {
				d := rc.ref.Cells[cellID(b, r.Workload, r.Variant, r.Model)].DetailedIPC
				errs[s] = append(errs[s], 100*math.Abs(r.IPC-d)/d)
			}
		}
		done()
		n.close()
	}
	o.hybrid = mean(hybrid)
	for _, e := range errs {
		o.sampledErr = append(o.sampledErr, e...)
	}
	return o, nil
}

// clusterPair: repeated fresh two-node clusters with one worker each. A
// cold sweep (the whole suite, Unsafe and Hybrid under Spectre, in a
// seeded order) is submitted to node a (which owns its ID) and its export
// fetched through node b (one proxy hop) while b steals queued cells; then
// the same sweep is submitted to b, which answers it from the cells it
// stole and from a's cache over the peering fabric.
func clusterPair(rc *runCtx) (*outcome, error) {
	o := &outcome{limit: 30 * time.Second}
	rng := rand.New(rand.NewSource(rc.seed))
	c := newClient()
	defer c.close()
	vs, spectre := []string{"unsafe", "hybrid"}, []string{"spectre"}
	newCluster := func() ([2]*node, error) {
		a, b, err := startCluster(rc)
		return [2]*node{a, b}, err
	}
	pair, err := timedSetup(o, setupReps, newCluster, func(p [2]*node) { p[0].close(); p[1].close() })
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if i > 0 {
			if pair, err = newCluster(); err != nil {
				return nil, err
			}
		}
		a, b := pair[0], pair[1]
		kernels := shuffledKernels(rng)
		done := rc.measure(a, b)
		if id, _, err := rc.closedSweep(o, c, a.url(), b.url(), clusterBudget, kernels, vs, spectre); err == nil {
			// A client polling the finished sweep's status through the
			// non-owner: one proxy hop, no waiting.
			rc.rec.time("bench.status", false, func() {
				if err := c.finished(b.url(), id); err != nil {
					o.ops[len(o.ops)-1].Err = err
					o.fail(err)
				}
			})
		}
		o.extraAttempted++
		_, v, err := rc.sweep(c, b.url(), a.url(), clusterBudget, kernels, vs, spectre)
		if err != nil {
			o.extraErr++
			o.fail(err)
		} else {
			o.hybrid = hybridOverheadPct(v, workload.Names())
		}
		done()
		a.close()
		b.close()
	}
	return o, nil
}

// startCluster builds the two in-process cluster members "a" and "b".
func startCluster(rc *runCtx) (*node, *node, error) {
	a, b := listen(), listen()
	a.id, b.id = "a", "b"
	members := []cluster.Member{{ID: "a", URL: a.url()}, {ID: "b", URL: b.url()}}
	ids := []string{"a", "b"}
	for _, pair := range [][2]*node{{a, b}, {b, a}} {
		self, peer := pair[0], pair[1]
		svc, err := simsvc.New(simsvc.Config{
			Workers:       1,
			OwnsID:        cluster.Owns(self.id, ids),
			Peers:         []string{peer.url()},
			PeerArtifacts: true,
			WorkStealing:  true,
			Trace:         rc.traced(),
		})
		if err != nil {
			a.close()
			b.close()
			return nil, nil, err
		}
		self.svc = svc
		cn, err := cluster.New(cluster.Config{Self: self.id, Members: members, Service: svc,
			Trace: rc.traced(), StealInterval: 100 * time.Millisecond})
		if err != nil {
			a.close()
			b.close()
			return nil, nil, err
		}
		self.cn = cn
		self.serve(rc.rec)
	}
	return a, b, nil
}

// session: an open-loop researcher session against a service configured
// like a default sdoserver (persistent cache + job journal), whose cache
// was preloaded with a seeded share of the grids during set-up.
func session(rc *runCtx) (*outcome, error) {
	o := &outcome{openLoop: true, limit: sessionLimit}
	plan := planSession(rc.seed, rc.seconds)
	c := newClient()
	defer c.close()
	type fixture struct {
		n       *node
		preload map[int]string // grid → sweep ID
	}
	setup := func() (*fixture, error) {
		dir, err := tempDir()
		if err != nil {
			return nil, err
		}
		cache := filepath.Join(dir, "cache.json")
		n, err := startService(simsvc.Config{Workers: 2, CachePath: cache, JournalPath: cache + ".jobs", Trace: rc.traced()}, rc.rec)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		n.dir = dir
		// Preload every grid's seeded variants, then the headline cells.
		f := &fixture{n: n, preload: map[int]string{}}
		ops := []sessionOp{headlineOp()}
		for g := range plan.Preload {
			ops = append(ops, plan.preloadOp(g))
		}
		ids := make([]string, len(ops))
		for i, op := range ops {
			if ids[i], err = c.submit(n.url(), sessionBudget.request(op.Workloads, op.Variants, op.Models)); err != nil {
				n.close()
				return nil, err
			}
		}
		for i, op := range ops {
			body, err := c.export(n.url(), ids[i])
			if err == nil {
				_, err = rc.ref.verify(body, sessionBudget, op.Workloads, op.Variants, op.Models)
			}
			if err != nil {
				n.close()
				return nil, fmt.Errorf("preload %v: %w", op.Workloads, err)
			}
		}
		for g := range plan.Preload {
			f.preload[g] = ids[g+1]
		}
		return f, nil
	}
	f, err := timedSetup(o, 3, setup, func(f *fixture) { f.n.close() })
	if err != nil {
		return nil, err
	}
	defer f.n.close()
	base := f.n.url()
	done := rc.measure(f.n)

	fetch := func(id string, g sessionOp) (*Verified, error) {
		body, err := c.export(base, id)
		if err != nil {
			return nil, err
		}
		return rc.ref.verify(body, sessionBudget, g.Workloads, g.Variants, g.Models)
	}
	// Each op writes only its own results[i]; openLoop's wait orders
	// those writes before the reads below.
	results := make([]opResult, len(plan.Ops))
	exec := func(i int) error {
		op := plan.Ops[i]
		var vs []*Verified
		var err error
		if op.Kind == opReexport {
			vs = make([]*Verified, 1)
			vs[0], err = fetch(f.preload[op.Grid], plan.preloadOp(op.Grid))
		} else {
			copies := 1
			if op.Kind == opDup {
				copies = 2
			}
			req := sessionBudget.request(op.Workloads, op.Variants, op.Models)
			vs = make([]*Verified, copies)
			errs := make([]error, copies)
			var wg sync.WaitGroup
			for k := 0; k < copies; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					id, err := c.submit(base, req)
					if err == nil {
						vs[k], err = fetch(id, op)
					}
					errs[k] = err
				}(k)
			}
			wg.Wait()
			err = errors.Join(errs...)
			if err == nil && op.Kind == opHeadline {
				o.hybrid = hybridOverheadPct(vs[0], op.Workloads)
			}
		}
		for _, v := range vs {
			if v != nil {
				results[i].Cells += len(v.Export.Runs)
				results[i].Instrs += answeredInstrs(v)
			}
		}
		return err
	}
	dues := make([]time.Duration, len(plan.Ops))
	for i, op := range plan.Ops {
		dues[i] = op.Due
	}
	timing := openLoop(time.Now(), dues, exec)
	for i, t := range timing {
		r := results[i]
		r.Due, r.Sent, r.Done, r.Err = t.Due, t.Sent, t.Done, t.Err
		o.ops = append(o.ops, r)
		o.late = append(o.late, t.Sent.Sub(t.Due))
		if t.Err != nil {
			o.fail(t.Err)
		}
	}
	done()
	return o, nil
}

// opTiming is one open-loop operation's schedule and outcome.
type opTiming struct {
	Due, Sent, Done time.Time
	Err             error
}

// openLoop starts fn(i) at start+dues[i] whatever earlier operations are
// doing, and waits for all of them. Latency is Done−Due: it counts the
// wait a stall imposes on later operations. Sent−Due is how late the
// generator itself dispatched the operation.
func openLoop(start time.Time, dues []time.Duration, fn func(i int) error) []opTiming {
	out := make([]opTiming, len(dues))
	var wg sync.WaitGroup
	for i, d := range dues {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		out[i].Due, out[i].Sent = due, time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := fn(i)
			out[i].Done, out[i].Err = time.Now(), err
		}(i)
	}
	wg.Wait()
	return out
}
