package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"time"

	"tc2d"
)

func oneshotOptions(cfg config) tc2d.Options {
	return tc2d.Options{Ranks: cfg.Ranks, Transport: tc2d.TransportTCP}
}

// coldReport is what a -cold-oneshot child prints.
type coldReport struct {
	Triangles int64   `json:"triangles"`
	PeakMB    float64 `json:"peak_mb"`
}

// runColdOneshot is the child side of the oneshot-tcp set-up: one count in
// a fresh process, the way a one-shot user pays for it.
func runColdOneshot(cfg config, stdout, stderr io.Writer) int {
	res, err := tc2d.CountRMAT(tc2d.G500, cfg.OneshotScale, cfg.EF, cfg.GraphSeed, oneshotOptions(cfg))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: cold one-shot:", err)
		return 1
	}
	peak, err := vmHWMMB("/proc/self/status")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: cold one-shot:", err)
		return 1
	}
	b, _ := json.Marshal(coldReport{Triangles: res.Triangles, PeakMB: peak})
	fmt.Fprintln(stdout, string(b))
	return 0
}

// coldOneshot launches one -cold-oneshot child and times it from launch to
// exit.
func coldOneshot(self string, scale int) (time.Duration, coldReport, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(self, "-cold-oneshot", strconv.Itoa(scale))
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	var rep coldReport
	if err != nil {
		return 0, rep, fmt.Errorf("cold one-shot child: %v: %s", err, errb.String())
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		return 0, rep, fmt.Errorf("cold one-shot child printed %q: %v", out.String(), err)
	}
	return d, rep, nil
}

// runOneshot: the paper's one-shot count over real sockets, back to back.
func runOneshot(e *env) (*outcome, error) {
	o := newOutcome()
	_, oracle, err := frozenGraph(e.cfg, e.cfg.OneshotScale)
	if err != nil {
		return nil, err
	}
	want := oracle + e.wrongOracle
	o.info["oracle_triangles"] = oracle

	var setups, peaks []float64
	for i := 0; i < e.cfg.SetupBoots; i++ {
		d, rep, err := coldOneshot(e.self, e.cfg.OneshotScale)
		if err != nil {
			return nil, err
		}
		o.attempted++
		if rep.Triangles != want {
			o.fail("cold one-shot counted %d triangles, oracle says %d", rep.Triangles, want)
		}
		setups = append(setups, d.Seconds())
		peaks = append(peaks, rep.PeakMB)
	}

	opt := oneshotOptions(e.cfg)
	var lat []float64
	start := time.Now()
	for time.Since(start) < e.window {
		t0 := time.Now()
		res, err := tc2d.CountRMAT(tc2d.G500, e.cfg.OneshotScale, e.cfg.EF, e.cfg.GraphSeed, opt)
		d := time.Since(t0)
		o.attempted++
		switch {
		case err != nil:
			o.fail("CountRMAT: %v", err)
			continue
		case res.Triangles != want:
			o.fail("CountRMAT counted %d triangles, oracle says %d", res.Triangles, want)
			continue
		}
		lat = append(lat, ms(d))
	}
	elapsed := time.Since(start)
	// About one call a second: only the median has ten samples beyond it.
	o.addE2E("p50_ms", "oneshot_s × 1000", pct(o, "one-shot call", lat, 0.5), "ms", len(lat))
	o.addE2E("ops_per_s", "one-shot calls per second", float64(len(lat))/elapsed.Seconds(), "1/s", len(lat))
	o.addE2E("peak_rss_mb", "VmHWM of a one-shot process", median(peaks), "MB", len(peaks))
	o.addE2E("setup_s", "fresh process launch to its one-shot answer", median(setups), "s", len(setups))
	o.info["setup_s_each"] = setups
	return o, nil
}
