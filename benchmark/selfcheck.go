package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// manifest is the part of BENCHMARK.json the self-check needs: which
// workloads to run, for how long, and each end-to-end metric's bound.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs the whole suite twice, each run in a fresh process as
// the driver does, and compares the two: every end-to-end metric must agree
// within its bound and every exact count must be identical. It is the
// stability criterion as a command, and the way to re-baseline on a new
// machine. Run it from the repository root.
func runSelfcheck(cfg config) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	exceeded := 0
	for _, w := range m.Workloads {
		var runs [2]report
		for i := range runs {
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.Itoa(m.RunSeconds), "-trace", "1", "-out", cfg.dir,
				"-tiny="+strconv.FormatBool(cfg.tiny))
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i+1, err)
			}
			data, err := os.ReadFile(filepath.Join(cfg.dir, w.Name+".report.json"))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &runs[i]); err != nil {
				return err
			}
		}
		a, b := runs[0], runs[1]
		fmt.Printf("%s\n", w.Name)
		for _, e := range m.EndToEnd {
			x, y := a.Values[e.Name], b.Values[e.Name]
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := "ok"
			if diff > e.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("  %-12s %12.6g %12.6g  diff %6.2f%%  bound %4.0f%%  %s\n",
				e.Name, x, y, 100*diff, 100*e.Bound, verdict)
		}
		for _, pm := range perLayer {
			if pm.exact && a.Values[pm.name] != b.Values[pm.name] {
				fmt.Printf("  %-28s %v != %v  NOT EXACT\n", pm.name, a.Values[pm.name], b.Values[pm.name])
				exceeded++
			}
		}
		for i, r := range runs {
			if !r.Correct || !r.additive() {
				fmt.Printf("  run %d: %d of %d jobs failed, additivity gap %+.2f%%  INVALID\n",
					i+1, r.Failed, r.Attempted, 100*r.AdditivityGap)
				exceeded++
			}
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("self-check: %d comparisons outside their bound", exceeded)
	}
	fmt.Println("self-check: both runs agree within every bound, every exact count identical, failed_frac 0")
	return nil
}
