package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// A/A mode: the whole suite run several times on one tree. Whatever
// differs between the suites is noise, so a median that moves by more
// than its regression bound between two of them means the bound (or the
// run length) is wrong, not the code.

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchSpec(rootDir string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(rootDir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// worsening is how much worse b is than a, as a share of a, for a
// metric whose better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}

func runAA(e env, rootDir string, ws []workload, opt options) (int, error) {
	spec, err := loadBenchSpec(rootDir)
	if err != nil {
		return 2, err
	}
	if opt.trace {
		return 2, fmt.Errorf("-aa compares the end-to-end metrics; run it with -trace 0")
	}
	suites := make([]*suiteResult, opt.aa)
	for i := range suites {
		fmt.Printf("\n# ---- A/A suite %d of %d ----\n", i+1, opt.aa)
		// Each suite draws its own seeds, as two sets of acceptance
		// runs would.
		o := opt
		o.seed = opt.seed + uint64(i*opt.reps)
		s, err := runSuite(e, ws, o, 0)
		if err != nil {
			return 1, err
		}
		suites[i] = s
	}
	values := func(s *suiteResult, wl, metric string) []float64 {
		var xs []float64
		for _, r := range s.runs {
			if r.workload == wl {
				xs = append(xs, r.metrics[metric].value)
			}
		}
		return xs
	}
	// The median the acceptance driver takes: the mean of the middle
	// two for an even count.
	medianOf := func(s *suiteResult, wl, metric string) float64 {
		xs := values(s, wl, metric)
		if _, q2, _, err := quartiles(xs); err == nil {
			return q2
		}
		return median(xs)
	}
	fmt.Printf("\n# ---- A/A verdict: suite k against suite 1, worsening as a share of suite 1's median ----\n")
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "median(1)", "median(k)", "worse", "bound", "")
	breaches := 0
	correct := true
	for _, s := range suites {
		correct = correct && s.correct()
	}
	for _, w := range ws {
		for _, m := range spec.EndToEnd {
			a := medianOf(suites[0], w.name, m.Name)
			for k := 1; k < len(suites); k++ {
				b := medianOf(suites[k], w.name, m.Name)
				worse := worsening(a, b, m.Better)
				verdict := "PASS"
				if worse > m.Bound {
					verdict = "FAIL"
					breaches++
				}
				fmt.Printf("%-16s %-18s %14.4f %14.4f %8.1f%% %6.0f%%  %s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
			}
		}
	}
	// With enough runs a suite also shows how steady each metric is: the
	// driver refuses a benchmark whose spread exceeds the bound (set-up
	// time excepted).
	if opt.reps >= 4 {
		fmt.Printf("\n# ---- spread per suite (interquartile range as a share of the median, over %d seeds) ----\n", opt.reps)
		for _, w := range ws {
			for _, m := range spec.EndToEnd {
				fmt.Printf("%-16s %-18s", w.name, m.Name)
				for _, s := range suites {
					sp, err := spread(values(s, w.name, m.Name))
					if err != nil {
						return 1, err
					}
					fmt.Printf(" %7.1f%%", 100*sp)
					if m.Name != "setup_s" && sp > m.Bound {
						fmt.Print(" FAIL")
						breaches++
					}
				}
				fmt.Printf("  of %.0f%%\n", 100*m.Bound)
			}
		}
	}
	if opt.out != "" {
		all := &suiteResult{}
		for _, s := range suites {
			all.runs = append(all.runs, s.runs...)
		}
		if err := writeJSONFile(opt.out, all.export()); err != nil {
			return 1, err
		}
	}
	switch {
	case !correct:
		fmt.Println("\nA/A: a correctness check failed")
		return 1, nil
	case breaches > 0:
		fmt.Printf("\nA/A: %d breach(es): a median moved, or a metric spread, by more than its bound between runs of the same code\n", breaches)
		return 1, nil
	}
	fmt.Println("\nA/A: every end-to-end metric of every workload agrees within its bound")
	return 0, nil
}
