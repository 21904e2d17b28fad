package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp records what a result was measured on. Results whose NumCPU
// differ are not comparable (steadyReport refuses them).
func envStamp(w *workload, flags []string, seed int64, seconds, trace int) map[string]any {
	return map[string]any{
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit(),
		"source_sha256":  sourceDigest(),
		"workload":       w.name,
		"lmserved_flags": flags,
		"seed":           seed,
		"seconds":        seconds,
		"trace":          trace,
	}
}

// commit is the checkout's git commit, or "unknown" outside a git work tree
// (the source digest still identifies the code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources lmserved is built from.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// spread is one metric's distribution over a steadiness report's runs.
// Q1 and Q3 follow Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), so bounds can be set from exactly the figures the
// acceptance check computes.
type spread struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQRRel float64   `json:"iqr_over_median"`
}

type report struct {
	Env       map[string]any                `json:"env"`
	Workloads map[string]map[string]*spread `json:"workloads"`
	Failed    int                           `json:"failed"`
}

// steadyReport runs each workload (or only the named one) with seeds 1..n in
// child processes of this binary and prints each metric's median and
// quartiles. With baseline it prints each median's change against an
// earlier report, refusing when the two were measured on different NumCPU.
func steadyReport(n int, only string, seconds, trace int, out, baseline string) error {
	var base *report
	if baseline != "" {
		b, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		base = &report{}
		if err := json.Unmarshal(b, base); err != nil {
			return fmt.Errorf("baseline %s: %w", baseline, err)
		}
		if cpu, _ := base.Env["num_cpu"].(float64); int(cpu) != runtime.NumCPU() {
			return fmt.Errorf("refusing to compare: baseline measured on NumCPU=%v, this machine has %d", base.Env["num_cpu"], runtime.NumCPU())
		}
	}
	rep := &report{Workloads: map[string]map[string]*spread{}}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		sp := map[string]*spread{}
		for seed := 1; seed <= n; seed++ {
			env, res, err := runChild(w.name, seed, seconds, trace)
			if err != nil {
				return err
			}
			rep.Env = env
			rep.Failed += res.Failed
			for k, m := range res.Metrics {
				if sp[k] == nil {
					sp[k] = &spread{Unit: m.Unit}
				}
				sp[k].Values = append(sp[k].Values, m.Value)
			}
		}
		for _, s := range sp {
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			if s.Median != 0 {
				s.IQRRel = (s.Q3 - s.Q1) / s.Median
			}
		}
		rep.Workloads[w.name] = sp
	}
	delete(rep.Env, "workload")
	delete(rep.Env, "seed")
	delete(rep.Env, "lmserved_flags")
	for _, w := range workloads {
		sp := rep.Workloads[w.name]
		if sp == nil {
			continue
		}
		names := make([]string, 0, len(sp))
		for k := range sp {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			s := sp[k]
			line := fmt.Sprintf("%-10s %-32s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %6.3f %s",
				w.name, k, s.Median, s.Q1, s.Q3, s.IQRRel, s.Unit)
			if base != nil {
				if b := base.Workloads[w.name][k]; b != nil && b.Median != 0 {
					line += fmt.Sprintf("  vs baseline %+6.1f%%", 100*(s.Median/b.Median-1))
				}
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("failed operations: %d\n", rep.Failed)
	if out != "" {
		b, _ := json.MarshalIndent(rep, "", " ")
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runChild runs one benchmark invocation of this binary and parses its env
// stamp and result lines.
func runChild(name string, seed, seconds, trace int) (map[string]any, *result, error) {
	args := []string{"-lmserved", flag.Lookup("lmserved").Value.String(), "-work", flag.Lookup("work").Value.String(),
		"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var env map[string]any
	var res result
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("%s seed %d: no result line", name, seed)
	}
	var stamp struct {
		Env map[string]any `json:"env"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &stamp); err != nil {
		return nil, nil, err
	}
	env = stamp.Env
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: correct=%v failed=%d\n", name, seed, res.Correct, res.Failed)
	return env, &res, nil
}

// quartiles ports Python's statistics.quantiles(data, n=4), method
// "exclusive".
func quartiles(vals []float64) (float64, float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
