package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// goldenDigests maps each AlgorithmVersion to the digest of the windows the
// committed goldens hold at that version. A change that moves a golden
// window must bump AlgorithmVersion and add its digest here.
var goldenDigests = map[int]string{
	1: "d24592d11c9e14b6",
}

// goldenWindow is one accepted window of a golden fixture.
type goldenWindow struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	Delay int     `json:"delay"`
	MI    float64 `json:"mi"`
}

// goldenAnswer is the answer part of a golden fixture, without its work
// counters: a search golden's windows, or a discovery golden's ranked
// candidates with theirs.
type goldenAnswer struct {
	Windows []goldenWindow `json:"windows"`
	Ranked  []struct {
		Name    string         `json:"name"`
		Index   int            `json:"index"`
		Windows []goldenWindow `json:"windows"`
	} `json:"ranked"`
}

// goldenDigest hashes the answers of the search goldens under
// testdata/golden and the discovery goldens: file names, ranked candidates
// and every window's bounds, delay and exact MI.
func goldenDigest(t *testing.T) string {
	t.Helper()
	var files []string
	for _, pattern := range []string{"../../testdata/golden/*.json", "../discovery/testdata/golden/discovery/*.json"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) == 0 {
			t.Fatalf("no golden files match %s", pattern)
		}
		files = append(files, m...)
	}
	h := fnv.New64a()
	windows := func(ws []goldenWindow) {
		for _, w := range ws {
			fmt.Fprintf(h, "%d %d %d %s\n", w.Start, w.End, w.Delay, strconv.FormatFloat(w.MI, 'g', -1, 64))
		}
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var g goldenAnswer
		if err := json.Unmarshal(raw, &g); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		fmt.Fprintf(h, "file %s\n", filepath.Base(f))
		windows(g.Windows)
		for _, c := range g.Ranked {
			fmt.Fprintf(h, "candidate %s %d\n", c.Name, c.Index)
			windows(c.Windows)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAlgorithmVersionPinsGoldens ties AlgorithmVersion to the golden
// answers: regenerated goldens whose windows moved fail here until the
// version is bumped, so journals never replay the old answers.
func TestAlgorithmVersionPinsGoldens(t *testing.T) {
	got := goldenDigest(t)
	want, ok := goldenDigests[AlgorithmVersion]
	if !ok {
		t.Fatalf("AlgorithmVersion %d has no golden digest; add %q to goldenDigests", AlgorithmVersion, got)
	}
	if got != want {
		t.Fatalf("golden windows digest %s, want %s for AlgorithmVersion %d: the goldens' answers changed, so bump AlgorithmVersion and add the new digest", got, want, AlgorithmVersion)
	}
}
