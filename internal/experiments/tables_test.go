package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"testing"
	"time"
)

// paperExperiments are the experiments that reproduce the paper: its
// Figures 2-9 and the theory checks T1-T3.
var paperExperiments = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "t1", "t2", "t3"}

// Golden SHA-256 digests of the paper experiments' tables (tablesDigest).
// Every change to the simulator is meant to keep them: the tables are a
// function of the preset and the seed alone, whatever the worker count,
// kinetic mode or spatial backend. A change that moves them on purpose
// (a new model, a fixed estimator) updates them and says why.
const (
	quickTablesSHA256 = "4bc80811d9e67aaed8275231196e61e7be4a371a8b3a2988b23cf7b9222c6aae"
	paperTablesSHA256 = "edc3916c794a9e0a473567ce48aabab481e6705e12bd1e02d4e612768e4bc5c2"
)

// tablesDigest runs the paper experiments at preset p and returns the
// SHA-256 of their rendered Markdown tables, each experiment's tables under
// its title. The timing line cmd/repro prints above an experiment is not
// part of a table, so wall-clock time never enters the digest; the test log
// has each experiment's time instead.
func tablesDigest(t *testing.T, p Preset) string {
	t.Helper()
	h := sha256.New()
	for _, id := range paperExperiments {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		t.Logf("%s (%s preset): %v", id, p.Name, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(h, "== %s ==\n", res.Title)
		for _, tb := range res.Tables {
			io.WriteString(h, tb.Markdown())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestQuickTablesPinned pins the paper experiments' tables at Quick(), the
// bit-identity net for refactors of any layer under them.
func TestQuickTablesPinned(t *testing.T) {
	if got := tablesDigest(t, Quick()); got != quickTablesSHA256 {
		t.Fatalf("quick-preset tables changed: SHA-256 %s, want %s", got, quickTablesSHA256)
	}
}

// TestPaperTablesPinned is TestQuickTablesPinned at the paper's own effort,
// Paper(): minutes of CPU time, so it runs only with ADHOCNET_PAPER=1.
func TestPaperTablesPinned(t *testing.T) {
	if os.Getenv("ADHOCNET_PAPER") != "1" {
		t.Skip("set ADHOCNET_PAPER=1 to run the paper experiments at the paper's effort")
	}
	if got := tablesDigest(t, Paper()); got != paperTablesSHA256 {
		t.Fatalf("paper-preset tables changed: SHA-256 %s, want %s", got, paperTablesSHA256)
	}
}
