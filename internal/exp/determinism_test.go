package exp

import (
	"runtime"
	"strings"
	"testing"
)

// suiteText renders the full quick suite as one canonical text
// document under the given parameters.
func suiteText(t *testing.T, p Params) string {
	t.Helper()
	reports, errs := RunAll(p, All)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", All[i].ID, err)
		}
	}
	var b strings.Builder
	for _, rep := range reports {
		if err := rep.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestSuiteByteIdentityWidthBlockMatrix is the suite's determinism
// gate for the work-stealing sweep scheduler and the blocked stepping
// kernel together: at a fixed seed the full quick-suite report must be
// byte-identical on a pool of any width, with trials interleaving
// across experiments and points, and at any block size, one trial per
// block or eight interleaved in SoA slabs. Each trial's randomness is a
// counter-based stream keyed only by (point seed, trial index), and
// every result is written to its own index-addressed slot, so neither
// scheduling order nor block geometry may be observable.
//
// The one-worker block=8 report is the one reference: a single pool
// worker runs every task one after another. Against it run pool widths
// {1, 2, 4, max(4, GOMAXPROCS)} crossed with block sizes {1, 8}, the
// Params defaults (width 0 = GOMAXPROCS, block 0 = core.DefaultBlock)
// and width 0 at block 1; a cell that resolves to a configuration
// already run, the reference included, is skipped. TestSweepResultSlots
// checks the sweeps' slots against direct trial calls, independently
// of any pool. Under -short the matrix shrinks to width 2 at both
// block sizes — the CI race matrix runs that trimmed form at
// GOMAXPROCS 2 and 4, which varies the real scheduling interleave
// underneath the same comparison.
func TestSuiteByteIdentityWidthBlockMatrix(t *testing.T) {
	base := Params{Quick: true, Seed: 7}

	type cell struct{ width, block int }
	ref := base
	ref.Parallelism = 1
	ref.Block = 8
	want := suiteText(t, ref)

	wide := max(4, runtime.GOMAXPROCS(0))
	// Width 0 and block 0 are the Params defaults.
	cells := []cell{{0, 0}, {0, 1}, {1, 1}, {2, 1}, {2, 8}, {4, 1}, {4, 8}, {wide, 1}, {wide, 8}}
	if testing.Short() {
		cells = []cell{{2, 1}, {2, 8}}
	}
	ran := map[cell]bool{{ref.Parallelism, ref.Block}: true}
	for _, c := range cells {
		p := base
		p.Parallelism = c.width
		p.Block = c.block
		resolved := cell{p.Parallelism, p.blockSize()}
		if resolved.width == 0 {
			resolved.width = runtime.GOMAXPROCS(0)
		}
		if ran[resolved] {
			continue
		}
		ran[resolved] = true
		got := suiteText(t, p)
		if got != want {
			t.Errorf("width=%d block=%d report differs from the width=1 block=8 reference:\n%s",
				c.width, c.block, firstDiff(want, got))
		}
	}
}

// firstDiff locates the first differing line, for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + itoa(i+1) + ":\n  a: " + al[i] + "\n  b: " + bl[i]
		}
	}
	return "documents differ in length: " + itoa(len(al)) + " vs " + itoa(len(bl)) + " lines"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}
