package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("1..10: q1=%g q3=%g, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("1,2: q1=%g q3=%g, want 0.75 2.25", q1, q3)
	}
}

// around returns n values spread evenly by ±spread/2 around m.
func around(m, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m * (1 + spread*(float64(i)/float64(n-1)-0.5))
	}
	return out
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name         string
		base, head   []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same runs", around(100, 0.02, 10), around(100, 0.02, 10), false, 0.1, verdictUnresolved},
		{"slower within bound", around(100, 0.02, 10), around(105, 0.02, 10), false, 0.1, verdictUnresolved},
		{"slower beyond bound", around(100, 0.02, 10), around(120, 0.02, 10), false, 0.1, verdictWorse},
		{"faster beyond spread", around(100, 0.02, 10), around(90, 0.02, 10), false, 0.1, verdictBetter},
		{"throughput down", around(1000, 0.02, 10), around(800, 0.02, 10), true, 0.1, verdictWorse},
		{"throughput up", around(1000, 0.02, 10), around(1080, 0.02, 10), true, 0.1, verdictBetter},
		{"noisy, overlapping", around(100, 0.6, 10), around(110, 0.6, 10), false, 0.1, verdictUnresolved},
		{"noisy, every head run worse", around(100, 0.3, 10), around(200, 0.3, 10), false, 0.1, verdictWorse},
		{"noisy, every head run better", around(100, 0.3, 10), around(40, 0.3, 10), false, 0.1, verdictBetter},
		{"better median, too few pair wins", around(100, 0.08, 10), around(97, 0.08, 10), false, 0.1, verdictUnresolved},
		{"no bound, inside spread", around(100, 0.1, 10), around(103, 0.1, 10), false, 0, verdictUnresolved},
		{"no bound, beyond spread", around(100, 0.1, 10), around(112, 0.1, 10), false, 0, verdictWorse},
		{"no bound, better beyond spread", around(100, 0.02, 10), around(95, 0.02, 10), false, 0, verdictBetter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := judge(tc.base, tc.head, tc.higherBetter, tc.bound)
			if r.verdict != tc.want {
				t.Errorf("verdict %s%s (change %+.3f, spread %.3f), want %s", r.verdict, r.note, r.change, r.spread, tc.want)
			}
		})
	}
}

func writeRun(t *testing.T, dir, name, workload string, metrics map[string]float64) {
	t.Helper()
	var parts []string
	for k, v := range metrics {
		parts = append(parts, fmt.Sprintf("%q:{\"value\":%g,\"unit\":\"x\"}", k, v))
	}
	out := fmt.Sprintf("progress line\n{\"report\":{\"workload\":%q}}\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{%s}}\n",
		workload, strings.Join(parts, ","))
	if err := os.WriteFile(filepath.Join(dir, name), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRowsPerWorkload(t *testing.T) {
	dir := t.TempDir()
	base, head := filepath.Join(dir, "base"), filepath.Join(dir, "head")
	for _, d := range []string{base, head} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		jitter := 1 + 0.01*float64(i-2)
		writeRun(t, base, fmt.Sprintf("a-%d", i), "alpha", map[string]float64{"lat_ms": 10 * jitter, "ops": 100 * jitter})
		writeRun(t, head, fmt.Sprintf("a-%d", i), "alpha", map[string]float64{"lat_ms": 13 * jitter, "ops": 100 * jitter})
		writeRun(t, base, fmt.Sprintf("b-%d", i), "beta", map[string]float64{"lat_ms": 10 * jitter, "ops": 100 * jitter})
		writeRun(t, head, fmt.Sprintf("b-%d", i), "beta", map[string]float64{"lat_ms": 10 * jitter, "ops": 120 * jitter})
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"ops","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", spec, base, head}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (a row is worse); stderr %s", code, stderr.String())
	}
	want := map[string]string{
		"alpha lat_ms": verdictWorse, "alpha ops": verdictUnresolved,
		"beta lat_ms": verdictUnresolved, "beta ops": verdictBetter,
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1+len(want) {
		t.Fatalf("output:\n%s", stdout.String())
	}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if got := want[f[0]+" "+f[1]]; got == "" || !strings.Contains(line, " "+got) {
			t.Errorf("row %q, want verdict %q", line, got)
		}
	}
	if strings.Contains(stdout.String(), "score") {
		t.Error("output folds rows into a score")
	}
}

// A per-layer metric has no bound: its worse row is printed but does
// not fail the comparison.
func TestPerLayerRowsDoNotGate(t *testing.T) {
	dir := t.TempDir()
	base, head := filepath.Join(dir, "base"), filepath.Join(dir, "head")
	for _, d := range []string{base, head} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		jitter := 1 + 0.01*float64(i-2)
		writeRun(t, base, fmt.Sprintf("r-%d", i), "alpha", map[string]float64{"lat_ms": 10 * jitter, "layer_ms": 1 * jitter})
		writeRun(t, head, fmt.Sprintf("r-%d", i), "alpha", map[string]float64{"lat_ms": 10 * jitter, "layer_ms": 2 * jitter})
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{
		"end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"layer_ms","unit":"ms","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", spec, base, head}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0 (only a per-layer row is worse); output:\n%s%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, " worse ") || !strings.Contains(out, "(not gated)") {
		t.Errorf("per-layer row not printed as an ungated worse:\n%s", stdout.String())
	}
}

func TestSpreadOf(t *testing.T) {
	if s := spreadOf([]float64{100, 100, 100}); s != 0 {
		t.Errorf("constant runs spread %g", s)
	}
	if s := spreadOf(around(100, 0.2, 11)); math.Abs(s-0.1) > 0.02 {
		t.Errorf("±10%% runs spread %g, want about 0.1", s)
	}
}
