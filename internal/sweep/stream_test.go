package sweep

import (
	"context"
	"reflect"
	"testing"

	"slicc/internal/runner"
	"slicc/internal/store"
)

// collectStream runs tinySpec through RunStream on a fresh pool over dir
// (persistent when dir != "") and returns the result and events.
func collectStream(t *testing.T, dir string, workers int) (*Result, []Event) {
	t.Helper()
	opts := runner.Options{Workers: workers}
	if dir != "" {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		opts.Memo = runner.NewStoreMemo(st)
	}
	var events []Event
	res, err := RunStream(context.Background(), runner.New(opts), tinySpec(), func(ev Event) {
		events = append(events, ev) // RunStream serializes emit
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

func TestRunStreamMatchesRunAndEmitsEveryCellOnce(t *testing.T) {
	want, err := Run(context.Background(), runner.New(runner.Options{Workers: 2}), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, events := collectStream(t, dir, 4)
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("RunStream result diverges from Run:\n%+v\nvs\n%+v", res, want)
	}

	cells := map[int]int{}
	bases := map[int]int{}
	wantCompleted := 0
	for _, ev := range events {
		if ev.Total != len(res.Cells) {
			t.Fatalf("event total %d, want %d", ev.Total, len(res.Cells))
		}
		if ev.StoreHit {
			t.Fatalf("cold run event reported a store hit: %+v", ev)
		}
		switch ev.Type {
		case EventCell:
			cells[ev.Index]++
			wantCompleted++
			if ev.Completed != wantCompleted {
				t.Fatalf("cell event completed=%d, want %d", ev.Completed, wantCompleted)
			}
			// Content determinism: the event carries the cell's *final*
			// metrics, Speedup included, however scheduling interleaved.
			if !reflect.DeepEqual(*ev.Cell, res.Cells[ev.Index]) {
				t.Fatalf("cell %d event %+v != final %+v", ev.Index, *ev.Cell, res.Cells[ev.Index])
			}
		case EventBaseline:
			bases[ev.Index]++
			if !reflect.DeepEqual(*ev.Cell, res.Baselines[ev.Index]) {
				t.Fatalf("baseline %d event diverges from final result", ev.Index)
			}
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
	if len(cells) != len(res.Cells) || len(bases) != len(res.Baselines) {
		t.Fatalf("saw %d cells / %d baselines, want %d / %d",
			len(cells), len(bases), len(res.Cells), len(res.Baselines))
	}
	for i, n := range cells {
		if n != 1 {
			t.Fatalf("cell %d emitted %d times", i, n)
		}
	}

	// A fresh pool over the warmed store models a resumed sweep: identical
	// result, and every event flags its cell as store-served.
	warmRes, warmEvents := collectStream(t, dir, 4)
	if !reflect.DeepEqual(warmRes, want) {
		t.Fatal("warm RunStream result diverges")
	}
	if len(warmEvents) != len(events) {
		t.Fatalf("warm run emitted %d events, want %d", len(warmEvents), len(events))
	}
	for _, ev := range warmEvents {
		if !ev.StoreHit {
			t.Fatalf("warm run event not store-served: %+v", ev)
		}
	}
}

func TestRunStreamNilEmit(t *testing.T) {
	want, err := Run(context.Background(), runner.New(runner.Options{Workers: 2}), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(context.Background(), runner.New(runner.Options{Workers: 2}), tinySpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("nil-emit RunStream diverges from Run")
	}
}

// TestAssembleFromStreamEvents: the rows RunStream emits rebuild exactly
// the Result it returns, and a missing, extra or foreign row is an error.
func TestAssembleFromStreamEvents(t *testing.T) {
	want, events := collectStream(t, "", 2)
	rows := func() (cells, baselines map[int]CellResult) {
		cells, baselines = map[int]CellResult{}, map[int]CellResult{}
		for _, ev := range events {
			if ev.Type == EventBaseline {
				baselines[ev.Index] = *ev.Cell
			} else {
				cells[ev.Index] = *ev.Cell
			}
		}
		return cells, baselines
	}
	cells, baselines := rows()
	got, err := Assemble(tinySpec(), cells, baselines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("assembled result diverges from RunStream's:\n%+v\nvs\n%+v", got, want)
	}

	for name, spoil := range map[string]func(cells, baselines map[int]CellResult){
		"missing cell":     func(cells, _ map[int]CellResult) { delete(cells, 2) },
		"missing baseline": func(_, baselines map[int]CellResult) { delete(baselines, 0) },
		"moved cell":       func(cells, _ map[int]CellResult) { cells[len(cells)] = cells[0]; delete(cells, 0) },
		"extra cell":       func(cells, _ map[int]CellResult) { cells[len(cells)] = cells[0] },
		"empty row":        func(cells, _ map[int]CellResult) { cells[1] = CellResult{} },
		"foreign cell":     func(cells, _ map[int]CellResult) { c := cells[3]; c.Threads++; cells[3] = c },
		"swapped rows":     func(cells, _ map[int]CellResult) { cells[0], cells[1] = cells[1], cells[0] },
	} {
		cells, baselines := rows()
		spoil(cells, baselines)
		if res, err := Assemble(tinySpec(), cells, baselines); err == nil {
			t.Errorf("%s: assembled %+v, want an error", name, res)
		}
	}
}
