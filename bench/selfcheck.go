package main

import (
	"fmt"
	"io"
)

// verdict is one workload×metric row of the selfcheck table.
type verdict struct {
	workload, metric string
	medA, medB       float64
	spreadA, spreadB float64
	bound            float64
	pass, warn       bool
}

// judge applies the acceptance rules to two sets of runs of one metric. Both
// sets' spread — (Q3 − Q1) ÷ median, quartiles as Python's
// statistics.quantiles gives them — must stay within the bound, except for
// setup_s, whose spread is reported only; and set B's median may not be worse
// than set A's by more than the bound. A spread above half the bound passes
// with a warning: the cure is a longer run, never a wider bound.
func judge(workload string, m metricSpec, a, b []float64) verdict {
	v := verdict{workload: workload, metric: m.Name, bound: m.Bound,
		medA: median(a), medB: median(b), spreadA: spread(a), spreadB: spread(b)}
	worse := (v.medB - v.medA) / v.medA
	if m.Better == higher {
		worse = -worse
	}
	wide := v.spreadA
	if v.spreadB > wide {
		wide = v.spreadB
	}
	v.pass = worse <= m.Bound
	if m.Name != "setup_s" {
		v.pass = v.pass && wide <= m.Bound
		v.warn = wide > m.Bound/2
	}
	return v
}

// runSelfcheck answers "is the ledger steady on this machine?": two
// interleaved sets (A1 B1 A2 B2 …) of n invocations of every workload, run i
// of either set on seed+i, judged against the bound table. It reports whether
// every row passed.
func runSelfcheck(w io.Writer, n int, seed uint64, seconds float64) bool {
	if n < 2 {
		fmt.Fprintln(w, "selfcheck: need N ≥ 2 for quartiles")
		return false
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-14s %12s %12s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "bound", "verdict")
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			var first outcome
			for s := range sets {
				res, err := runWorkload(wl, seed+uint64(i), seconds, false, "")
				if err != nil {
					fmt.Fprintf(w, "selfcheck: %v\n", err)
					return false
				}
				for name, v := range res.e2e {
					sets[s][name] = append(sets[s][name], v)
				}
				// A simulator is a pure function of its seed: digest,
				// quality and every count repeat exactly.
				if s == 0 {
					first = res.out
				} else if first.hasDigest && first != res.out {
					fmt.Fprintf(w, "%-18s seed %d: FAIL, two runs differ: %+v vs %+v\n", wl.name, seed+uint64(i), first, res.out)
					ok = false
				}
			}
		}
		for _, m := range endToEnd {
			v := judge(wl.name, m, sets[0][m.Name], sets[1][m.Name])
			word := "PASS"
			switch {
			case !v.pass:
				word, ok = "FAIL", false
			case v.warn:
				word = "PASS (warn: spread above half the bound — lengthen the run)"
			}
			fmt.Fprintf(w, "%-18s %-14s %12.5f %12.5f %8.3f%% %8.3f%% %6.1f%%  %s\n",
				v.workload, v.metric, v.medA, v.medB, 100*v.spreadA, 100*v.spreadB, 100*v.bound, word)
		}
	}
	return ok
}
