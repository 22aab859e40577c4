package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json, the declaration this program is written
// against: it names the workloads and every metric with its unit, and gives
// each end-to-end metric the bound -agree compares against. The program
// reads names and units from it instead of repeating them, so a metric
// computed here but not declared there is an error, not a silent extra.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the checkout root when run through run.sh, the parent of
// benchmark/ under `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("BENCHMARK.json: workloads, end_to_end and per_layer must all be non-empty")
	}
	return &s, nil
}

// decls returns the metric declarations of one run mode.
func (s *benchSpec) decls(traced bool) []metricDecl {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// value is one reported number: the value, and how many timing samples it
// summarizes (0 for exact counts and derived figures).
type value struct {
	v float64
	n int
}

// metricSet collects a run's metrics by declared name.
type metricSet struct {
	decl map[string]metricDecl
	vals map[string]value
	errs []error
}

func newMetricSet(decls []metricDecl) *metricSet {
	m := &metricSet{decl: make(map[string]metricDecl, len(decls)), vals: make(map[string]value, len(decls))}
	for _, d := range decls {
		m.decl[d.Name] = d
	}
	return m
}

// set records a metric. Names outside the run mode's declared set are
// collected as errors: the program and BENCHMARK.json must not drift.
func (m *metricSet) set(name string, v float64, n int) {
	if _, ok := m.decl[name]; !ok {
		m.errs = append(m.errs, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name))
		return
	}
	m.vals[name] = value{v: v, n: n}
}

// timing records the median of timing samples, scaled into the metric's unit.
func (m *metricSet) timing(name string, samples []float64, scale float64) {
	m.set(name, median(samples)*scale, len(samples))
}
