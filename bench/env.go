package main

// The benchmark's surroundings: the checkout it measures, the scratch
// directory it may write, BENCHMARK.json, and the freshly built binaries.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// buildDir is the only place the benchmark writes, relative to the
// checkout root; .gitignore names it.
const buildDir = ".bench_build"

// spec is the part of BENCHMARK.json the benchmark reads back: the
// default window, and each metric's unit and bound.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type env struct {
	root string // checkout root: holds BENCHMARK.json and the f90y module
	work string // this run's scratch directory, removed on exit
	spec spec

	mu  sync.Mutex
	srv *server // the live f90yd child, if any
}

// findRoot walks up from the working directory to the checkout root.
// `go run -C bench` starts the benchmark inside bench/, `go run ./...`
// variants at the root; both end at the directory with BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &e.spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	e.work, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	return e, nil
}

// track remembers the live f90yd child so close can stop it on any exit
// path, signals included.
func (e *env) track(s *server) {
	e.mu.Lock()
	e.srv = s
	e.mu.Unlock()
}

// close stops a still-running child and removes everything this run
// wrote, its state directory included.
func (e *env) close() {
	e.mu.Lock()
	srv := e.srv
	e.srv = nil
	e.mu.Unlock()
	srv.stop()
	os.RemoveAll(e.work)
}

func (e *env) bin(name string) string { return filepath.Join(e.work, "bin", name) }

// build compiles one binary of the program under test (or the layers
// adapter) into this run's scratch directory, so every run measures a
// binary built from the checkout it runs in.
func (e *env) build(name string) error {
	dir, pkg := e.root, "./cmd/"+name
	if name == "layers" {
		dir, pkg = filepath.Join(e.root, "bench"), "./layers"
	}
	// A binary left by an earlier set-up of this process would let go build
	// skip the link, and that set-up would read faster than the first.
	os.Remove(e.bin(name))
	cmd := exec.Command("go", "build", "-o", e.bin(name), pkg)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, strings.TrimSpace(string(out)))
	}
	return nil
}

// writeSource stores a generated source under the scratch directory.
func (e *env) writeSource(name, src string) (string, error) {
	dir := filepath.Join(e.work, "src")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".f90")
	return path, os.WriteFile(path, []byte(src), 0o644)
}

// bound is the regression bound BENCHMARK.json fixes for an end-to-end
// metric.
func (e *env) bound(metric string) (metricSpec, bool) {
	for _, m := range e.spec.EndToEnd {
		if m.Name == metric {
			return m, true
		}
	}
	return metricSpec{}, false
}

// unit looks a metric's unit up in BENCHMARK.json.
func (e *env) unit(name string) string {
	for _, list := range [][]metricSpec{e.spec.EndToEnd, e.spec.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return "?"
}
