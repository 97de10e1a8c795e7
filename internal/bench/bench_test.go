package bench

import (
	"strings"
	"testing"
)

func TestTable1SmallRows(t *testing.T) {
	rows, err := Table1(Table1Opts{FDs: []int{1, 2}, Seed: 1, MonaBudget: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].NumAtt != 3 || rows[0].NumFD != 1 || rows[0].TW != 3 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[1].NumAtt != 6 {
		t.Fatalf("row 1 = %+v", rows[1])
	}
	if rows[0].TreeNodes == 0 || rows[0].MD == 0 {
		t.Fatal("missing measurements")
	}
	// Small instances must fit in the baseline budget.
	if rows[0].MonaOOM {
		t.Fatal("baseline out of budget on the smallest instance")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "#Att") || !strings.Contains(out, "ms") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestTable1BaselineDies(t *testing.T) {
	// With a tiny budget the baseline must report OOM — and stay dead on
	// larger rows (the paper's "–" entries).
	rows, err := Table1(Table1Opts{FDs: []int{4, 7}, Seed: 1, MonaBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if !r.MonaOOM {
			t.Fatalf("row %d baseline survived a 1000-step budget", i)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "-") {
		t.Fatalf("OOM marker missing:\n%s", out)
	}
}

func TestSkipMona(t *testing.T) {
	rows, err := Table1(Table1Opts{FDs: []int{1}, Seed: 1, SkipMona: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].MonaOOM {
		t.Fatal("SkipMona should mark the baseline column as unavailable")
	}
}
