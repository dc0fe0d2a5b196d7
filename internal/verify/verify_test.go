package verify

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"github.com/anacin-go/anacinx/internal/patterns"
)

func TestSweepDedupesProcsAndIters(t *testing.T) {
	cases := []struct {
		name     string
		opts     Options
		minProcs int
		want     []Config
	}{
		{"repeated procs", Options{Procs: []int{2, 2}, Iters: []int{1}}, 2,
			[]Config{{2, 1}}},
		{"repeated iters", Options{Procs: []int{2}, Iters: []int{1, 1}}, 2,
			[]Config{{2, 1}}},
		{"procs raised then deduped and sorted", Options{Procs: []int{8, 1, 3}, Iters: []int{1}}, 3,
			[]Config{{3, 1}, {8, 1}}},
		{"iters keep first-occurrence order", Options{Procs: []int{4}, Iters: []int{3, 1, 3, 2, 1}}, 2,
			[]Config{{4, 3}, {4, 1}, {4, 2}}},
	}
	for _, c := range cases {
		if got := c.opts.Sweep(c.minProcs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Sweep = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestVerifyPatternsIndependentOfCoreCount checks that the concurrent
// entry point reports exactly what verifying the patterns one by one
// in argument order reports, at every GOMAXPROCS: the JSON bytes must
// not depend on the core count or on which pattern finished first.
func TestVerifyPatternsIndependentOfCoreCount(t *testing.T) {
	all := patterns.All()
	reversed := make([]patterns.Pattern, len(all))
	for i, p := range all {
		reversed[len(all)-1-i] = p
	}
	point32 := Options{Procs: []int{32}, Iters: []int{1}}
	cases := []struct {
		name string
		pats []patterns.Pattern
		opts Options
		run  func() ([]Finding, []ConfigSummary)
	}{
		{"VerifyAll/default-sweep", all, Options{}, func() ([]Finding, []ConfigSummary) {
			return VerifyAll(Options{})
		}},
		{"VerifyAll/32rank", all, point32, func() ([]Finding, []ConfigSummary) {
			return VerifyAll(point32)
		}},
		{"VerifyPatterns/reversed", reversed, Options{}, func() ([]Finding, []ConfigSummary) {
			return VerifyPatterns(reversed, Options{})
		}},
	}
	report := func(t *testing.T, f []Finding, s []ConfigSummary) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteJSON(&buf, "test", f, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var (
				serialF []Finding
				serialS []ConfigSummary
			)
			for _, pat := range c.pats {
				f, s := VerifyPattern(pat, c.opts)
				serialF = append(serialF, f...)
				serialS = append(serialS, s...)
			}
			want := report(t, serialF, serialS)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				f, s := c.run()
				var order []string
				for _, sum := range s {
					if len(order) == 0 || order[len(order)-1] != sum.Pattern {
						order = append(order, sum.Pattern)
					}
				}
				for i, name := range order {
					if name != c.pats[i].Name() {
						t.Fatalf("GOMAXPROCS=%d: summary pattern %d is %s, want %s (argument order)",
							procs, i, name, c.pats[i].Name())
					}
				}
				if got := report(t, f, s); !bytes.Equal(got, want) {
					t.Fatalf("GOMAXPROCS=%d: report differs from the serial one (%d vs %d bytes)",
						procs, len(got), len(want))
				}
			}
		})
	}
}
