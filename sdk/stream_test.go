package sdk

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"slicc"
)

// TestWatchSweepRejectsIncompleteStream: a stream that reaches "done"
// without every row of the spec's expansion is an error, never a partial
// result, and the watcher does not fall back to fetching the resource.
func TestWatchSweepRejectsIncompleteStream(t *testing.T) {
	foreign := cellEvent(2)
	foreign.Cell.Policy = "slicc"
	extra := cellEvent(3)
	extra.Index = 4
	for name, events := range map[string][]slicc.SweepEvent{
		"missing cell":     append(tinyStream()[:4:4], cellEvent(3)),
		"missing baseline": tinyStream()[1:],
		"foreign cell":     append(tinyStream()[:4:4], foreign, cellEvent(3)),
		"extra cell":       append(tinyStream(), extra),
	} {
		t.Run(name, func(t *testing.T) {
			c, posts, gets := scriptedSweepService(t, func(_ int32, w http.ResponseWriter) {
				for i, ev := range events {
					writeEvent(w, i+1, ev)
				}
				writeEvent(w, len(events)+1, slicc.SweepEvent{Type: slicc.SweepEventDone, Status: "done", Completed: 4, Total: 4})
			})
			res, err := c.WatchSweep(context.Background(), tinySpec(), nil)
			if err == nil {
				t.Fatalf("WatchSweep returned %+v, want an error", res)
			}
			if gets.Load() != 0 || posts.Load() != 1 {
				t.Fatalf("%d GETs and %d POSTs of the sweep, want 0 and 1", gets.Load(), posts.Load())
			}
		})
	}
}

// TestWatchSweepResultEqualsGET drives a real engine through a corpus of
// tiny specs covering every way a spec shapes its result: the assembled
// result must be DeepEqual and JSON-byte-equal to the GET resource's.
func TestWatchSweepResultEqualsGET(t *testing.T) {
	c := realService(t)
	ctx := context.Background()

	// Every spec shares one tiny workload family, so the corpus simulates
	// a handful of distinct cells and the rest are engine memo hits.
	base := func(mod func(*slicc.SweepSpec)) slicc.SweepSpec {
		s := slicc.SweepSpec{
			Workloads: []string{"tpcc1"},
			Policies:  []string{"base", "slicc-sw"},
			Threads:   slicc.SweepInts(6),
			Scales:    slicc.SweepFloats(0.05),
		}
		mod(&s)
		return s
	}
	fromJSON := func(doc string) slicc.SweepSpec {
		var s slicc.SweepSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	corpus := []struct {
		name string
		spec slicc.SweepSpec
	}{
		{"default baseline", base(func(*slicc.SweepSpec) {})},
		{"no baseline", base(func(s *slicc.SweepSpec) { s.Baseline = "none" })},
		{"objective cycles", base(func(s *slicc.SweepSpec) { s.Objective = "cycles" })},
		{"objective impki", base(func(s *slicc.SweepSpec) { s.Objective = "impki" })},
		{"objective dmpki", base(func(s *slicc.SweepSpec) { s.Objective = "dmpki" })},
		{"threshold list", base(func(s *slicc.SweepSpec) { s.FillUpT = slicc.SweepInts(128, 384) })},
		{"json range", fromJSON(`{"workloads":["tpcc1"],"policies":["slicc-sw"],"threads":6,
			"scales":{"from":0.04,"to":0.05,"step":0.01},"matched_t":{"from":2,"to":6,"step":4}}`)},
		{"named", base(func(s *slicc.SweepSpec) { s.Name = "named"; s.Seeds = slicc.SweepInts(2) })},
		// Same content key as "default baseline": the service coalesces it
		// onto that run, whose spec (and so Name) the result carries.
		{"renamed duplicate", base(func(s *slicc.SweepSpec) { s.Name = "renamed" })},
		{"preset", fromJSON(`{"preset":"core-scaling","threads":[6],"scales":[0.05],"cores":[4,8]}`)},
	}
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			res, err := c.WatchSweep(ctx, tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			id, err := tc.spec.Key()
			if err != nil {
				t.Fatal(err)
			}
			sw, err := c.Sweep(ctx, id, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, sw.Result) {
				t.Fatalf("assembled result diverges from GET:\n%+v\nvs\n%+v", res, sw.Result)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(sw.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("assembled result marshals to %d bytes, GET's to %d", len(got), len(want))
			}
			if tc.spec.Baseline == "none" && (res.Baselines != nil || res.BestIndex != -1) {
				t.Fatalf("baseline none: %d baselines, best %d; want none and -1", len(res.Baselines), res.BestIndex)
			}
		})
	}
}
