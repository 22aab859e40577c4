package server

// The two read surfaces' *shape*, pinned against files generated at the
// commit before the one-snapshot refactor: every /metrics family (name,
// HELP, TYPE, order) with the label sets of its non-histogram series, and
// every key path of the /v1/stats JSON, for a store-backed, queue-backed
// server that has served nothing yet. Values are not compared. To change
// a surface on purpose: go test ./internal/server -run TestReadSurfaceGolden -update

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"slicc/internal/queue"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the running code")

// metricsShape strips an exposition down to what dashboards bind to:
// HELP/TYPE lines, plus name{labels} of every non-histogram series.
func metricsShape(text string) string {
	var b strings.Builder
	histogram := false
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			histogram = strings.HasSuffix(line, " histogram")
		case strings.HasPrefix(line, "#"):
		case histogram:
			continue
		default:
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// jsonKeyPaths lists every dotted key path in a JSON document, sorted.
func jsonKeyPaths(t *testing.T, doc []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("decoding %q: %v", doc, err)
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			paths = append(paths, prefix)
			return
		}
		for k, child := range m {
			walk(strings.TrimPrefix(prefix+"."+k, "."), child)
		}
	}
	walk("", v)
	sort.Strings(paths)
	return strings.Join(paths, "\n") + "\n"
}

func TestReadSurfaceGolden(t *testing.T) {
	ts, _, _, _ := newDistributedServer(t, queue.Options{LeaseTTL: time.Minute})
	fetch := func(path string) []byte {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, r.StatusCode, err)
		}
		return b
	}
	// /metrics first: its own request counter series does not exist until
	// the scrape has been answered, so the first exposition is fixed.
	for _, c := range []struct{ file, got string }{
		{"metrics_families.golden", metricsShape(string(fetch("/metrics")))},
		{"stats_keys.golden", jsonKeyPaths(t, fetch("/v1/stats"))},
	} {
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.WriteFile(path, []byte(c.got), 0o666); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if c.got != string(want) {
			t.Errorf("%s differs from the pinned surface:\n--- got ---\n%s--- want ---\n%s", c.file, c.got, want)
		}
	}
}
