package sweep

import (
	"context"
	"maps"
	"slices"
	"sync"
	"testing"

	"slicc/internal/experiments"
	"slicc/internal/runner"
)

// recordingMemo answers every Get as a hit with an empty result and notes
// the key, so a pool over it yields the set of JobKeys a run declares
// without synthesizing a workload or simulating anything.
type recordingMemo struct {
	mu   sync.Mutex
	keys map[string]bool
}

func (m *recordingMemo) Get(key string) (runner.Result, bool) {
	m.mu.Lock()
	m.keys[key] = true
	m.mu.Unlock()
	return runner.Result{}, true
}

func (m *recordingMemo) Put(string, runner.Result) {}

// declaredKeys returns the JobKeys run submits to a fresh pool.
func declaredKeys(t *testing.T, run func(*runner.Pool) error) []string {
	t.Helper()
	memo := &recordingMemo{keys: map[string]bool{}}
	pool := runner.New(runner.Options{Memo: memo})
	if err := run(pool); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.JobsExecuted != 0 || st.WorkloadsBuilt != 0 {
		t.Fatalf("declaring jobs executed %d and built %d workloads", st.JobsExecuted, st.WorkloadsBuilt)
	}
	return slices.Sorted(maps.Keys(memo.keys))
}

// TestFigurePresetsMatchFigures pins the promise the figure presets make:
// fig7-thresholds and fig8-dilution expand to exactly the jobs Figures 7
// and 8 declare at full size, so a store warmed by `experiments -run fig7`
// answers the preset sweep with zero simulations, and vice versa.
func TestFigurePresetsMatchFigures(t *testing.T) {
	for _, tc := range []struct {
		preset string
		figure func(experiments.Options) (experiments.Table, error)
	}{
		{"fig7-thresholds", experiments.Figure7},
		{"fig8-dilution", experiments.Figure8},
	} {
		t.Run(tc.preset, func(t *testing.T) {
			fig := declaredKeys(t, func(p *runner.Pool) error {
				_, err := tc.figure(experiments.Options{Pool: p})
				return err
			})
			preset := declaredKeys(t, func(p *runner.Pool) error {
				_, err := Run(context.Background(), p, Spec{Preset: tc.preset})
				return err
			})
			if len(fig) == 0 {
				t.Fatal("figure declared no jobs")
			}
			if !slices.Equal(fig, preset) {
				t.Fatalf("job sets differ: figure declares %d jobs, preset %d", len(fig), len(preset))
			}
		})
	}
}
