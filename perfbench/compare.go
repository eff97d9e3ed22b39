package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads a records file written with -record.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series collects one end-to-end metric over the untraced runs of one
// workload, in file order.
func series(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.E2E[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict applies the pair-and-spread rule. Runs are paired in order. The
// change is better when it wins at least nine tenths of the pairs (ties
// count for neither side) and the medians differ by more than the base's
// interquartile distance. It is worse when its median is worse than the
// base's by more than the bound and the base's spread is within the bound.
// A spread wider than the bound leaves the metric unresolved, unless every
// run of one side beats every run of the other.
func verdict(base, change []float64, m specMetric) string {
	if len(base) == 0 || len(change) == 0 {
		return "no data"
	}
	lower := m.Better == "lower"
	better := func(a, b float64) bool { // a beats b
		if lower {
			return a < b
		}
		return a > b
	}
	q1, med, q3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	n := len(base)
	if len(change) < n {
		n = len(change)
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	all := func(a, b []float64) bool {
		for _, x := range a {
			for _, y := range b {
				if !better(x, y) {
					return false
				}
			}
		}
		return true
	}
	spread := (q3 - q1) / math.Abs(med)
	if float64(wins) >= 0.9*float64(n) && math.Abs(cmed-med) > q3-q1 && better(cmed, med) {
		return "better"
	}
	if all(change, base) {
		return "better"
	}
	if all(base, change) {
		return "worse"
	}
	worseBy := (cmed - med) / math.Abs(med)
	if !lower {
		worseBy = -worseBy
	}
	if spread > m.Bound {
		return "unresolved"
	}
	if worseBy > m.Bound {
		return "worse"
	}
	return "unchanged"
}

func runCompare(args []string, specPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <base records.jsonl> <change records.jsonl>")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	compareTo(stdout, sp, base, change)
	return 0
}

// compareTo prints, per workload and end-to-end metric, the median and
// quartiles of both sides and the verdict for the change.
func compareTo(w io.Writer, sp *spec, base, change []record) {
	wls := map[string]bool{}
	for _, r := range change {
		wls[r.Workload] = true
	}
	var names []string
	for n := range wls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-13s %28s %28s  %-10s\n", "workload", "metric", "base median [q1, q3] (n)", "change median [q1, q3] (n)", "verdict")
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			b := series(base, wl, m.Name)
			c := series(change, wl, m.Name)
			if len(c) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-12s %-13s %28s %28s  %-10s\n", wl, m.Name, summary(b), summary(c), verdict(b, c, m))
		}
	}
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}

// printOverhead sets the traced run's end-to-end numbers beside the
// untraced runs of the same workload found in the records file.
func printOverhead(w io.Writer, path, workload string, o *outcome) {
	fmt.Fprintf(w, "-- tracing overhead: %s traced pass vs untraced runs in %s\n", workload, path)
	recs, _ := readRecords(path)
	for _, v := range o.e2e {
		un := series(recs, workload, v.Name)
		if len(un) == 0 {
			fmt.Fprintf(w, "   %-26s traced %12.6g %-4s  untraced: no runs recorded\n", v.Name, v.Value, v.Unit)
			continue
		}
		med := median(un)
		fmt.Fprintf(w, "   %-26s traced %12.6g %-4s  untraced median %12.6g over %d runs  (traced/untraced %.3f)\n",
			v.Name, v.Value, v.Unit, med, len(un), v.Value/med)
	}
}
