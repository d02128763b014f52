package sim

import (
	"strings"
	"testing"
)

func TestGeometricInts(t *testing.T) {
	got := GeometricInts(100, 1600, 5)
	if got[0] != 100 || got[len(got)-1] != 1600 {
		t.Errorf("endpoints: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("not strictly increasing: %v", got)
		}
	}
	// Roughly doubling.
	for i := 1; i < len(got); i++ {
		ratio := float64(got[i]) / float64(got[i-1])
		if ratio < 1.5 || ratio > 2.5 {
			t.Errorf("ratio %v at %d: %v", ratio, i, got)
		}
	}
	if one := GeometricInts(50, 50, 5); len(one) != 1 || one[0] != 50 {
		t.Errorf("degenerate sweep: %v", one)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("demo", "n", "value")
	tbl.AddRow(10, 3.14159)
	tbl.AddRow(2000, "x")
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "3.1416") {
		t.Errorf("float not formatted: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines: %q", len(lines), out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(0.0)
	tbl.AddRow(1e-9)
	tbl.AddRow(2.5e7)
	tbl.AddRow(nanv())
	rows := tbl.Rows
	if rows[0][0] != "0" {
		t.Errorf("zero = %q", rows[0][0])
	}
	if !strings.Contains(rows[1][0], "e-") {
		t.Errorf("tiny = %q", rows[1][0])
	}
	if !strings.Contains(rows[2][0], "e+") {
		t.Errorf("huge = %q", rows[2][0])
	}
	if rows[3][0] != "NaN" {
		t.Errorf("nan = %q", rows[3][0])
	}
}

func nanv() float64 {
	var z float64
	return z / z
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow(1, "x,y")
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}
