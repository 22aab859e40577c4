package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"slicc/internal/runner"
)

// CellResult is one expanded cell with its measured metrics. Speedup is
// relative to the cell's (workload, machine) group baseline, 0 when the
// spec's Baseline is "none".
type CellResult struct {
	Cell
	Instructions uint64  `json:"instructions"`
	Cycles       float64 `json:"cycles"`
	IMPKI        float64 `json:"impki"`
	DMPKI        float64 `json:"dmpki"`
	Migrations   uint64  `json:"migrations"`
	Speedup      float64 `json:"speedup,omitempty"`
}

// Result is a completed sweep: every cell in expansion order (deterministic
// for a given spec, independent of worker count), the baseline reference
// cells, and the objective-selected best cell.
type Result struct {
	Name      string       `json:"name,omitempty"`
	Objective string       `json:"objective"`
	Spec      Spec         `json:"spec"`
	Cells     []CellResult `json:"cells"`
	// Baselines holds one reference result per (workload, machine) group
	// (empty when Baseline is "none"). Their Speedup is 1 by definition.
	Baselines []CellResult `json:"baselines,omitempty"`
	// BestIndex is the objective-best cell's index into Cells, -1 when no
	// cell qualifies (e.g. objective "speedup" without a baseline).
	BestIndex int `json:"best_index"`
}

// Best returns the objective-best cell, or nil.
func (r *Result) Best() *CellResult {
	if r.BestIndex < 0 || r.BestIndex >= len(r.Cells) {
		return nil
	}
	return &r.Cells[r.BestIndex]
}

// Run expands the spec and executes it on the pool: one runner job per cell
// plus one baseline reference per (workload, machine) group, all submitted
// as a single batch so the pool's dedup and persistent store collapse
// repeats. It is RunStreamVia with no Remote and no emit. Results are
// aggregated into a Result whose cell order — and therefore whose
// JSON/CSV/table output — depends only on the spec.
func Run(ctx context.Context, pool *runner.Pool, spec Spec) (*Result, error) {
	return RunStreamVia(ctx, pool, spec, nil, nil)
}

// cellResult converts one runner result into a cell's metrics row (Speedup
// left for the caller, which knows the group baseline).
func cellResult(c Cell, rr runner.Result) CellResult {
	r := rr.Sim
	return CellResult{
		Cell:         c,
		Instructions: r.Instructions,
		Cycles:       r.Cycles,
		IMPKI:        r.IMPKI(),
		DMPKI:        r.DMPKI(),
		Migrations:   r.Migrations,
	}
}

// aggregate assembles the final Result from the full job results (cells
// first, then baseline references — the job order RunStreamVia submits).
// It is pure, so a local, distributed or store-warmed run produces
// identical Results from identical runner results.
func aggregate(norm Spec, ex *expansion, rs []runner.Result) *Result {
	res := &Result{
		Name:      norm.Name,
		Objective: norm.Objective,
		Spec:      norm,
		Cells:     make([]CellResult, len(ex.cells)),
	}
	for i, c := range ex.baseCells {
		cr := cellResult(c, rs[len(ex.cells)+i])
		cr.Speedup = 1
		res.Baselines = append(res.Baselines, cr)
	}
	for i, c := range ex.cells {
		cr := cellResult(c, rs[i])
		if bi := ex.baseIndex[i]; bi >= 0 && cr.Cycles > 0 {
			cr.Speedup = res.Baselines[bi].Cycles / cr.Cycles
		}
		res.Cells[i] = cr
	}
	res.BestIndex = bestIndex(norm.Objective, res.Cells)
	return res
}

// Assemble rebuilds the Result of spec from rows delivered one at a time —
// cells and baselines keyed by expansion index, as RunStream's events
// carry them, with their final Speedup — without running anything. Every
// index must be present, none may be extra, and each row's Cell must be
// the expansion's; anything else is an error, never a partial Result. For
// the rows a run emitted, the Result equals the one the run returned.
func Assemble(spec Spec, cells, baselines map[int]CellResult) (*Result, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	ex, err := norm.expand()
	if err != nil {
		return nil, err
	}
	if len(cells) != len(ex.cells) || len(baselines) != len(ex.baseCells) {
		return nil, fmt.Errorf("sweep: %d cells and %d baselines delivered, the spec expands to %d and %d",
			len(cells), len(baselines), len(ex.cells), len(ex.baseCells))
	}
	res := &Result{
		Name:      norm.Name,
		Objective: norm.Objective,
		Spec:      norm,
		Cells:     make([]CellResult, len(ex.cells)),
	}
	row := func(kind string, i int, want Cell, got map[int]CellResult) (CellResult, error) {
		r, ok := got[i]
		if !ok {
			return CellResult{}, fmt.Errorf("sweep: %s %d was not delivered", kind, i)
		}
		if r.Cell != want {
			return CellResult{}, fmt.Errorf("sweep: %s %d is %+v, the spec expands it to %+v", kind, i, r.Cell, want)
		}
		return r, nil
	}
	for i, c := range ex.baseCells {
		cr, err := row("baseline", i, c, baselines)
		if err != nil {
			return nil, err
		}
		res.Baselines = append(res.Baselines, cr)
	}
	for i, c := range ex.cells {
		if res.Cells[i], err = row("cell", i, c, cells); err != nil {
			return nil, err
		}
	}
	res.BestIndex = bestIndex(norm.Objective, res.Cells)
	return res, nil
}

// bestIndex returns the index of the objective-best cell, -1 when no cell
// qualifies. Ties keep the earlier cell, so the first-expanded one wins
// deterministically.
func bestIndex(objective string, cells []CellResult) int {
	best, bestV := -1, 0.0
	for i, c := range cells {
		var v float64
		ok, maximize := true, false
		switch objective {
		case "speedup":
			v, ok, maximize = c.Speedup, c.Speedup > 0, true
		case "cycles":
			v, ok = c.Cycles, c.Cycles > 0
		case "impki":
			v = c.IMPKI
		default: // "dmpki"
			v = c.DMPKI
		}
		if !ok {
			continue
		}
		if best < 0 || (maximize && v > bestV) || (!maximize && v < bestV) {
			best, bestV = i, v
		}
	}
	return best
}

// resultColumns is the shared column set of Rows and WriteCSV.
var resultColumns = []string{
	"workload", "threads", "seed", "scale", "cores", "l1i_kb", "l1d_kb",
	"policy", "fillup_t", "matched_t", "dilution_t",
	"instructions", "cycles", "impki", "dmpki", "migrations", "speedup",
}

// Header returns the per-cell table header.
func (r *Result) Header() []string { return append([]string(nil), resultColumns...) }

// row renders one cell. Threshold columns apply only to SLICC-family
// policies; raw mode (CSV) keeps the sentinel numbers, display mode shows
// "-" for not-applicable and "def"/"off" for the named settings.
func (c CellResult) row(raw bool) []string {
	sliccFam := policyDefs[c.Policy].slicc
	thr := func(v int) string {
		if raw {
			return strconv.Itoa(v)
		}
		switch {
		case !sliccFam:
			return "-"
		case v == 0:
			return "def"
		case v < 0:
			return "off"
		}
		return strconv.Itoa(v)
	}
	speedup := "-"
	if c.Speedup > 0 {
		speedup = fmt.Sprintf("%.3f", c.Speedup)
	} else if raw {
		speedup = "0"
	}
	return []string{
		c.Workload,
		strconv.Itoa(c.Threads),
		strconv.FormatInt(c.Seed, 10),
		strconv.FormatFloat(c.Scale, 'g', -1, 64),
		strconv.Itoa(c.Cores),
		strconv.Itoa(c.L1IKB),
		strconv.Itoa(c.L1DKB),
		c.Policy,
		thr(c.FillUpT), thr(c.MatchedT), thr(c.DilutionT),
		strconv.FormatUint(c.Instructions, 10),
		fmt.Sprintf("%.0f", c.Cycles),
		fmt.Sprintf("%.2f", c.IMPKI),
		fmt.Sprintf("%.2f", c.DMPKI),
		strconv.FormatUint(c.Migrations, 10),
		speedup,
	}
}

// Rows returns the per-cell table rows in expansion order.
func (r *Result) Rows() [][]string {
	rows := make([][]string, len(r.Cells))
	for i, c := range r.Cells {
		rows[i] = c.row(false)
	}
	return rows
}

// WriteCSV emits the result as RFC-4180 CSV: a header row, then one row
// per cell in expansion order (raw sentinel values preserved, so the file
// round-trips into analysis tools losslessly).
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(resultColumns); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if err := cw.Write(c.row(true)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
