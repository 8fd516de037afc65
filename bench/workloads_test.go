package main

import (
	"regexp"
	"strings"
	"testing"
)

func sources(seed int64) map[string]string {
	out := map[string]string{}
	for _, w := range workloads() {
		for _, p := range w.programs(seed) {
			out[w.name+"/"+p.name] = p.source
			if p.verify != "" {
				out[w.name+"/"+p.name+"/verify"] = p.verify
			}
		}
	}
	return out
}

func TestSeedReproducesSources(t *testing.T) {
	a, b := sources(7), sources(7)
	if len(a) == 0 {
		t.Fatal("no sources generated")
	}
	for name, src := range a {
		if b[name] != src {
			t.Errorf("%s: the same seed generated different sources", name)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := sources(7), sources(8)
	for name, src := range a {
		if b[name] == src {
			t.Errorf("%s: seeds 7 and 8 generated the same source", name)
		}
	}
	// Within one workload the round-robin serve sources are distinct
	// cache keys (serve_durable shares serve_hot's traffic by design).
	for _, w := range workloads() {
		seen := map[string]string{}
		for _, p := range w.programs(7) {
			if prev, dup := seen[p.source]; dup {
				t.Errorf("%s: %s and %s are the same source", w.name, p.name, prev)
			}
			seen[p.source] = p.name
		}
	}
}

// realLiteral matches the only thing a seed may change: a real literal
// constant. Integer literals (extents, trip counts, shift amounts,
// dimension numbers) are left in place.
var realLiteral = regexp.MustCompile(`[0-9]+\.[0-9]+`)

// A seed changes no shape, size, statement or operand: with the real
// literals blanked, the sources of two seeds are the same text.
func TestShapesAndSizesDoNotDependOnSeed(t *testing.T) {
	a, b := sources(7), sources(8)
	for name, src := range a {
		if !strings.Contains(src, "integer, parameter :: n = ") {
			t.Errorf("%s: no extent declaration found", name)
		}
		sa, sb := realLiteral.ReplaceAllString(src, "#"), realLiteral.ReplaceAllString(b[name], "#")
		if sa != sb {
			t.Errorf("%s: seeds 7 and 8 differ in more than real literal constants", name)
		}
	}
}

func TestNonceChangesOnlyTheNonce(t *testing.T) {
	src := workloads()[4].programs(3)[0].source
	if !strings.Contains(src, "nonce = 0\n") {
		t.Fatal("serve_cold source carries no nonce assignment")
	}
	a, b := withNonce(src, 41), withNonce(src, 42)
	if a == src || a == b || len(a) != len(b) {
		t.Error("nonces did not produce distinct sources of equal length")
	}
	if strings.Replace(a, "nonce = 41\n", "nonce = 0\n", 1) != src {
		t.Error("withNonce changed more than the nonce assignment")
	}
	if got := nonceOutput("chk 1 2\nnonce 0\n", 42); got != "chk 1 2\nnonce 42\n" {
		t.Errorf("nonceOutput = %q", got)
	}
}
