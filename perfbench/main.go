// Command perfbench is the repository's benchmark: it drives the sweep
// service, the cluster and the simulator layers through their public
// entry points, checks every export against a committed per-cell
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) with their units. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 15 --trace 0
//
// Workloads: paper-grid, sampled-grid, session, cluster-pair (README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

var workloads = map[string]func(*runCtx) (*outcome, error){
	"paper-grid":   paperGrid,
	"sampled-grid": sampledGrid,
	"session":      session,
	"cluster-pair": clusterPair,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-grid, sampled-grid, session or cluster-pair")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same sweep requests")
	seconds := flag.Float64("seconds", 15, "measurement time of the time-bounded workloads")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	refPath := flag.String("reference", filepath.Join("perfbench", "reference.json"), "per-cell reference table")
	expPath := flag.String("expected", "expected_results.txt", "paper results whose Figure 6 rows paper-grid must reproduce")
	gen := flag.Bool("gen-reference", false, "regenerate the reference table at -reference and exit")
	flag.Parse()

	if *gen {
		if err := genReference(*refPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-grid|sampled-grid|session|cluster-pair, --seconds > 0 and --trace 0|1")
		return 2
	}

	// The reference load is part of set-up; it is repeated like the rest
	// of set-up so one cold read does not decide setup_s.
	var ref *Reference
	var loads []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if ref, err = loadReference(*refPath, *expPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		loads = append(loads, time.Since(start).Seconds())
	}
	refLoad := median(loads)

	fp := fingerprint()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	rc := &runCtx{ref: ref, seed: *seed, seconds: *seconds}
	o, err := wl(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metrics := endToEnd(o, refLoad)
	final := o
	if *traceFlag == 1 {
		traced := &runCtx{ref: ref, seed: *seed, seconds: *seconds, rec: &recorder{}, svc: &svcStats{}}
		final, err = wl(traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		ls, err := layerPass(traced.rec, planLayers(*name, *seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		metrics = layerMetrics(o, final, traced, ls)
		printSelfTimes(traced.rec)
		if err := writeSpans(*name, *seed, fp, traced.rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	attempted, failed := o.counts()
	if *traceFlag == 1 {
		a, f := final.counts()
		attempted, failed = attempted+a, failed+f
	}
	if failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", firstErr(o, final))
	}
	fmt.Printf("%-40s %14.4f %s\n", "error_rate", ratio(float64(failed), float64(attempted)), "ratio")
	if len(o.sampledErr) > 0 {
		fmt.Printf("%-40s %14.4f %s\n", "sampled_err_pct", mean(o.sampledErr), "%")
	}
	if t := tail(o.latenciesMS()); t.Pct > 0 {
		fmt.Printf("%-40s %14.4f ms (p%g of %d sweeps)\n", "latency_tail_ms", t.Value, t.Pct, t.N)
	} else {
		fmt.Printf("%-40s %14s (%d sweeps: too few for a percentile with ten beyond it)\n", "latency_tail_ms", "-", t.N)
	}
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Printf("%-40s %14.4f %s\n", m.Name, m.Value, m.Unit)
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	rec, _ := json.Marshal(map[string]any{"workload": *name, "seed": *seed, "trace": *traceFlag,
		"fingerprint": fp, "attempted": attempted, "failed": failed, "metrics": out})
	fmt.Printf("record %s\n", rec)
	res, _ := json.Marshal(map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out})
	fmt.Println(string(res))
	return 0
}

func firstErr(outs ...*outcome) error {
	for _, o := range outs {
		if o.firstErr != nil {
			return o.firstErr
		}
	}
	return nil
}

// counts returns operations attempted and failed.
func (o *outcome) counts() (attempted, failed int) {
	attempted, failed = len(o.ops)+o.extraAttempted, o.extraErr
	for _, op := range o.ops {
		if op.Err != nil {
			failed++
		}
	}
	return attempted, failed
}

// latenciesMS is each operation's time from due to verified export.
func (o *outcome) latenciesMS() []float64 {
	var out []float64
	for _, op := range o.ops {
		out = append(out, ms(op.Done.Sub(op.Due)))
	}
	return out
}

// sweepS is the median time from sending a sweep to its verified export.
func sweepS(o *outcome) float64 {
	var xs []float64
	for _, op := range o.ops {
		xs = append(xs, op.Done.Sub(op.Sent).Seconds())
	}
	return median(xs)
}

// endToEnd derives the end-to-end metrics of an untraced pass. Rates are
// over the closed loop's busy time (sum of its sweeps) or, open loop,
// from the first due time to the last verified export.
func endToEnd(o *outcome, refLoad float64) metricSet {
	var basis time.Duration
	var first, last time.Time
	var cells, instrs float64
	var good int
	for i, op := range o.ops {
		basis += op.Done.Sub(op.Sent)
		if i == 0 || op.Due.Before(first) {
			first = op.Due
		}
		if op.Done.After(last) {
			last = op.Done
		}
		if op.Err == nil {
			cells += float64(op.Cells)
			instrs += op.Instrs
			if op.Done.Sub(op.Due) <= o.limit {
				good++
			}
		}
	}
	if o.openLoop {
		basis = last.Sub(first)
	}
	var setups []float64
	for _, d := range o.setups {
		setups = append(setups, d.Seconds())
	}
	lat := o.latenciesMS()
	var out metricSet
	out.add("setup_s", refLoad+median(setups), "s")
	out.add("sweep_s", sweepS(o), "s")
	out.add("cells_per_s", ratio(cells, basis.Seconds()), "1/s")
	out.add("answered_minstrs_per_s", ratio(instrs, basis.Seconds())/1e6, "Minstr/s")
	out.add("latency_p50_ms", median(lat), "ms")
	out.add("latency_p90_ms", quantile(lat, 0.9), "ms")
	out.add("goodput_per_s", ratio(float64(good), basis.Seconds()), "1/s")
	out.add("peak_rss_mb", peakRSSMB(), "MB")
	out.add("hybrid_overhead_pct", o.hybrid, "%")
	return out
}

// printSelfTimes prints the traced run's time per span name.
func printSelfTimes(rec *recorder) {
	st := selfTimes(rec)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span totals (traced pass and layer pass):")
	for _, n := range names {
		fmt.Printf("  %-36s %12.1f ms\n", n, ms(st[n]))
	}
}

// writeSpans writes the traced run's spans as JSON under .bench_build.
func writeSpans(name string, seed int64, fp Fingerprint, rec *recorder) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec.mu.Lock()
	data, err := json.Marshal(map[string]any{"workload": name, "seed": seed, "fingerprint": fp, "spans": rec.spans})
	rec.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", strings.ReplaceAll(name, "/", "_"), seed))
	return os.WriteFile(path, data, 0o644)
}
