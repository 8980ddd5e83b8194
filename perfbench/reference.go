package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// variant pairs the per-layer metric suffix of a Table II row with the
// name a sweep request uses for it.
type variant struct{ slug, req string }

// variants lists the Table II rows in core.Variants() order.
var variants = []variant{
	{"unsafe", "unsafe"}, {"stt-ld", "sttld"}, {"stt-ldfp", "sttldfp"},
	{"static-l1", "static-l1"}, {"static-l2", "static-l2"}, {"static-l3", "static-l3"},
	{"hybrid", "hybrid"}, {"perfect", "perfect"},
}

func allVariantReqs() []string {
	out := make([]string, len(variants))
	for i, v := range variants {
		out[i] = v.req
	}
	return out
}

// displayName is the export's spelling of a request variant ("sttld" →
// "STT{ld}").
func displayName(req string) string {
	v, err := core.ParseVariant(req)
	if err != nil {
		panic(err) // variants above are all registered
	}
	return v.String()
}

var models = map[string]pipeline.AttackModel{"spectre": pipeline.Spectre, "futuristic": pipeline.Futuristic}

// Budget is the instruction budget and simulation mode of a cell; with
// the workload, variant and model it fixes the cell's result.
type Budget struct {
	Sampled        bool
	Warmup, Max    uint64
	SampleInterval uint64 // sampled only
	SampleMaxK     int    // sampled only
	SampleSeed     uint64 // sampled only
}

func (b Budget) request(workloads, variants, models []string) map[string]any {
	req := map[string]any{
		"workloads": workloads, "variants": variants, "models": models,
		"max_instrs": b.Max, "warmup_instrs": b.Warmup,
	}
	if b.Sampled {
		req["sim_mode"] = "sampled"
		req["sample_interval_instrs"] = b.SampleInterval
		req["sample_max_k"] = b.SampleMaxK
		req["sample_seed"] = b.SampleSeed
	}
	return req
}

// cellID names a cell in the reference table; variant and model use the
// export's spelling.
func cellID(b Budget, workload, variant, model string) string {
	mode := "detailed"
	if b.Sampled {
		mode = fmt.Sprintf("sampled-i%d-k%d-s%d", b.SampleInterval, b.SampleMaxK, b.SampleSeed)
	}
	return fmt.Sprintf("%s/w%d/m%d/%s/%s/%s", mode, b.Warmup, b.Max, workload, variant, model)
}

// RefCell is one cell's expected outcome.
type RefCell struct {
	Digest string  `json:"digest"`
	IPC    float64 `json:"ipc"`
	// DetailedIPC is, for a sampled cell, the IPC of the detailed
	// simulation of the same whole window (the sampling-error baseline).
	DetailedIPC float64 `json:"detailed_ipc,omitempty"`
	// The counters the export's Figure 7 breakdown reads but its rows do
	// not carry. With the rows they rebuild the whole export.
	OblFailSquashes   uint64 `json:"obl_fail_squashes,omitempty"`
	TLBSquashes       uint64 `json:"tlb_squashes,omitempty"`
	ImprecisionCycles uint64 `json:"imprecision_cycles,omitempty"`
}

// refCell is a cell's reference entry as computed from its result.
func refCell(r harness.ExportRun, res core.Result) RefCell {
	sq := res.SquashesByCause()
	return RefCell{Digest: digest(r), IPC: r.IPC, OblFailSquashes: sq[causeOblFail],
		TLBSquashes: sq[causeTLB], ImprecisionCycles: res.ImprecisionCycles}
}

// The squash causes the Figure 7 breakdown attributes.
const causeOblFail, causeTLB = "obl-fail", "tlb"

// squashIndex is the index of a named cause in pipeline.Stats.Squashes.
func squashIndex(name string) int {
	var s pipeline.Stats
	for i := range s.Squashes {
		s.Squashes = [len(s.Squashes)]uint64{}
		s.Squashes[i] = 1
		if s.SquashesByCause()[name] == 1 {
			return i
		}
	}
	panic("no squash cause " + name)
}

// Reference is the committed per-cell reference table plus the paper's
// Figure 6 rows.
type Reference struct {
	Cells map[string]RefCell `json:"cells"`
	// fig6[model][kernel] holds the printed normalized times in
	// core.Variants() order.
	fig6 map[string]map[string][]string
}

// loadReference reads the reference table and the Figure 6 rows of
// expected_results.txt at the checkout root.
func loadReference(tablePath, expectedPath string) (*Reference, error) {
	data, err := os.ReadFile(tablePath)
	if err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	ref := &Reference{}
	if err := json.Unmarshal(data, ref); err != nil {
		return nil, fmt.Errorf("reference table %s: %w", tablePath, err)
	}
	exp, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, fmt.Errorf("expected results: %w", err)
	}
	ref.fig6 = parseFig6(exp)
	if len(ref.fig6["Spectre"]) == 0 || len(ref.fig6["Futuristic"]) == 0 {
		return nil, fmt.Errorf("%s: no Figure 6 rows found", expectedPath)
	}
	return ref, nil
}

// parseFig6 extracts the per-kernel rows of both FIGURE 6 tables.
func parseFig6(data []byte) map[string]map[string][]string {
	out := map[string]map[string][]string{}
	var model string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "FIGURE 6 (Spectre"):
			model = "Spectre"
		case strings.HasPrefix(line, "FIGURE 6 (Futuristic"):
			model = "Futuristic"
		case strings.TrimSpace(line) == "" || strings.HasPrefix(line, "FIGURE"):
			model = ""
		case model != "":
			f := strings.Fields(line)
			if len(f) == len(variants)+1 && f[0] != "benchmark" && f[0] != "Avg" {
				if out[model] == nil {
					out[model] = map[string][]string{}
				}
				out[model][f[0]] = f[1:]
			}
		}
	}
	return out
}

// digest fingerprints an export row's per-cell content: everything but
// the normalized time (which depends on whether the sweep also ran the
// Unsafe baseline) and the optional trace attribution.
func digest(r harness.ExportRun) string {
	r.NormTime = 0
	r.Attribution = nil
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // ExportRun always marshals
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}

// cell is one (workload, variant, model) of a request, variant in the
// export's spelling.
type cell struct{ workload, variant, model string }

// cellsOf expands a request's grid.
func cellsOf(workloads, variantReqs, modelReqs []string) []cell {
	var out []cell
	for _, w := range workloads {
		for _, v := range variantReqs {
			for _, m := range modelReqs {
				out = append(out, cell{w, displayName(v), models[m].String()})
			}
		}
	}
	return out
}

// Verified is a checked export: its rows keyed by cell.
type Verified struct {
	Export harness.Export
	Rows   map[cell]harness.ExportRun
}

// verify decodes an export body and checks it holds exactly the wanted
// cells, each matching the reference digest, and that the body is, byte
// for byte, the export the service's own code writes for those rows:
// that covers each row's norm_time and the aggregate sections.
func (ref *Reference) verify(body []byte, b Budget, workloads, variantReqs, modelReqs []string) (*Verified, error) {
	v := &Verified{Rows: map[cell]harness.ExportRun{}}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields() // a mangled key must not pass as an absent zero field
	if err := dec.Decode(&v.Export); err != nil {
		return nil, fmt.Errorf("export does not decode: %w", err)
	}
	if v.Export.MaxInstrs != b.Max || v.Export.WarmupInstrs != b.Warmup {
		return nil, fmt.Errorf("export budget %d+%d, requested %d+%d", v.Export.WarmupInstrs, v.Export.MaxInstrs, b.Warmup, b.Max)
	}
	for _, r := range v.Export.Runs {
		v.Rows[cell{r.Workload, r.Variant, r.Model}] = r
	}
	want := cellsOf(workloads, variantReqs, modelReqs)
	if len(v.Rows) != len(want) || len(v.Export.Runs) != len(want) {
		return nil, fmt.Errorf("export has %d runs, want %d", len(v.Export.Runs), len(want))
	}
	res := &harness.Results{Runs: map[harness.Key]core.Result{}, Attrib: map[harness.Key]*trace.Attribution{}}
	for _, c := range want {
		r, ok := v.Rows[c]
		if !ok {
			return nil, fmt.Errorf("export lacks %v", c)
		}
		id := cellID(b, c.workload, c.variant, c.model)
		rc, ok := ref.Cells[id]
		if !ok {
			return nil, fmt.Errorf("no reference for %s", id)
		}
		if got := digest(r); got != rc.Digest {
			return nil, fmt.Errorf("%s: digest %s, reference %s", id, got, rc.Digest)
		}
		k, cr, err := rc.result(r)
		if err != nil {
			return nil, err
		}
		res.Runs[k], res.Attrib[k] = cr, r.Attribution
	}
	// The service builds the export from the request's lists, in request
	// order; so does the rebuild.
	opt := harness.Options{MaxInstrs: b.Max, WarmupInstrs: b.Warmup}
	for _, w := range workloads {
		wl, err := workload.ByName(w)
		if err != nil {
			return nil, err
		}
		opt.Workloads = append(opt.Workloads, wl)
	}
	for _, vr := range variantReqs {
		cv, err := core.ParseVariant(vr)
		if err != nil {
			return nil, err
		}
		opt.Variants = append(opt.Variants, cv)
	}
	for _, m := range modelReqs {
		opt.Models = append(opt.Models, models[m])
	}
	res.Opt = opt
	var rebuilt bytes.Buffer
	if err := res.WriteJSON(&rebuilt); err != nil {
		return nil, err
	}
	if !bytes.Equal(body, rebuilt.Bytes()) {
		return nil, fmt.Errorf("export differs from its rows' rebuild at byte %d", firstDiff(body, rebuilt.Bytes()))
	}
	return v, nil
}

// result rebuilds the core.Result fields the export reads from a
// verified row and the cell's reference counters.
func (rc RefCell) result(r harness.ExportRun) (harness.Key, core.Result, error) {
	v, err := core.ParseVariant(r.Variant)
	if err != nil {
		return harness.Key{}, core.Result{}, err
	}
	m, ok := modelNamed(r.Model)
	if !ok {
		return harness.Key{}, core.Result{}, fmt.Errorf("export model %q", r.Model)
	}
	if rc.OblFailSquashes+rc.TLBSquashes > r.Squashes {
		return harness.Key{}, core.Result{}, fmt.Errorf("%s/%s/%s: %d squashes, fewer than the reference's causes", r.Workload, r.Variant, r.Model, r.Squashes)
	}
	s := pipeline.Stats{
		Cycles: r.Cycles, Committed: r.Committed, DelayedLoads: r.DelayedLoads,
		OblIssued: r.OblIssued, OblFail: r.OblFail, Validations: r.Validations,
		Exposures: r.Exposures, ValidationStall: r.ValidationStall,
		PredPrecise: r.PredPrecise, PredImprecise: r.PredImprecise,
		PredInaccurate: r.PredInaccurate, ImprecisionCycles: rc.ImprecisionCycles,
	}
	s.Squashes[oblFailIdx] = rc.OblFailSquashes
	s.Squashes[tlbIdx] = rc.TLBSquashes
	s.Squashes[otherIdx] = r.Squashes - rc.OblFailSquashes - rc.TLBSquashes
	return harness.Key{Workload: r.Workload, Variant: v, Model: m},
		core.Result{Variant: v, Model: m, Stats: s}, nil
}

// modelNamed looks an attack model up by its export spelling.
func modelNamed(name string) (pipeline.AttackModel, bool) {
	for _, m := range models {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

var oblFailIdx, tlbIdx = squashIndex(causeOblFail), squashIndex(causeTLB)

// otherIdx holds a rebuilt result's remaining squashes: any cause the
// breakdown does not attribute.
var otherIdx = func() int {
	for i := 0; ; i++ {
		if i != oblFailIdx && i != tlbIdx {
			return i
		}
	}
}()

// firstDiff is the first offset at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkFig6 compares a full-grid export's per-kernel normalized times with
// the Figure 6 rows of expected_results.txt at printed precision.
func (ref *Reference) checkFig6(v *Verified, kernels []string) error {
	for _, m := range []string{"Spectre", "Futuristic"} {
		for _, k := range kernels {
			row, ok := ref.fig6[m][k]
			if !ok {
				return fmt.Errorf("expected_results.txt has no %s row for %s", m, k)
			}
			for i, vr := range variants {
				r, ok := v.Rows[cell{k, displayName(vr.req), m}]
				if !ok {
					return fmt.Errorf("export lacks %s/%s/%s", k, vr.slug, m)
				}
				if got := fmt.Sprintf("%.3f", r.NormTime); got != row[i] {
					return fmt.Errorf("Figure 6 %s %s %s: %s, expected %s", m, k, vr.slug, got, row[i])
				}
			}
		}
	}
	return nil
}

// hybridOverheadPct is the mean over kernels of Hybrid's Spectre
// slowdown over Unsafe, in percent of Unsafe's cycles.
func hybridOverheadPct(v *Verified, kernels []string) float64 {
	var pcts []float64
	for _, k := range kernels {
		u, ok1 := v.Rows[cell{k, "Unsafe", "Spectre"}]
		h, ok2 := v.Rows[cell{k, "Hybrid", "Spectre"}]
		if ok1 && ok2 && u.Cycles > 0 {
			pcts = append(pcts, 100*(float64(h.Cycles)/float64(u.Cycles)-1))
		}
	}
	return mean(pcts)
}

// answeredInstrs is the instructions the export's results stand for:
// warmup plus the committed measurement window of every run.
func answeredInstrs(v *Verified) float64 {
	var n float64
	for _, r := range v.Export.Runs {
		n += float64(v.Export.WarmupInstrs + r.Committed)
	}
	return n
}
