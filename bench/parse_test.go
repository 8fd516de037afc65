package main

import (
	"strings"
	"testing"
)

func TestParseCyclesLine(t *testing.T) {
	stderr := "cm2: 2048 PEs @ 7 MHz | 34.107 modeled ms | 2.22 GFLOPS | 10 node calls, 109 comm calls\n" +
		"cycles: pe 80384, comm 154471, host 3892 | flops 75759616\n"
	c, err := parseCyclesLine(stderr)
	if err != nil {
		t.Fatal(err)
	}
	if c != (modelCycles{PE: 80384, Comm: 154471, Host: 3892}) || c.total() != 238747 {
		t.Errorf("parsed %+v, total %v", c, c.total())
	}
	for _, bad := range []string{"", "cm2: no report\n", "cycles: pe x, comm 1, host 2 | flops 3\n", "cycles: pe 1, comm 2\n"} {
		if _, err := parseCyclesLine(bad); err == nil {
			t.Errorf("parseCyclesLine(%q) accepted", bad)
		}
	}
}

const okResponse = `{
  "job_id": "j000007", "tenant": "anon", "kind": "run", "status": "done", "http_status": 200,
  "cached": true, "queue_ms": 0.25, "run_ms": 14.5,
  "result": {"target": "cm2", "gflops": 1.14,
    "cycles": {"host": 2224, "pe": 7500, "comm": 29895.4, "total": 39619.4},
    "output": ["u 0.45", "p 1.97e+09"]}
}`

func TestParseRunResponse(t *testing.T) {
	r, out, c, err := parseRunResponse([]byte(okResponse))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached || r.QueueMS != 0.25 || r.RunMS != 14.5 {
		t.Errorf("response fields: %+v", r)
	}
	if out != "u 0.45\np 1.97e+09\n" {
		t.Errorf("output %q", out)
	}
	// The CLI prints whole cycles; the key compares in that form.
	if c.key() != "pe 7500, comm 29895, host 2224" {
		t.Errorf("cycles key %q", c.key())
	}
	for name, body := range map[string]string{
		"not JSON":      "<html>",
		"still running": `{"status": "running"}`,
		"no cycles":     `{"status": "done", "result": {"output": []}}`,
		"bad total":     strings.Replace(okResponse, `"total": 39619.4`, `"total": 1`, 1),
	} {
		if _, _, _, err := parseRunResponse([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckComparesStdoutAndCycles(t *testing.T) {
	ref := reference{stdout: "chk 1\n", cycles: modelCycles{PE: 1, Comm: 2, Host: 3}}
	ok := cliOp{stdout: "chk 1\n", cycles: modelCycles{PE: 1, Comm: 2.4, Host: 3}}
	if err := ok.check(ref); err != nil {
		t.Errorf("matching op rejected: %v", err)
	}
	if err := (cliOp{stdout: "chk 2\n", cycles: ref.cycles}).check(ref); err == nil {
		t.Error("differing stdout accepted")
	}
	if err := (cliOp{stdout: "chk 1\n", cycles: modelCycles{PE: 2, Comm: 2, Host: 3}}).check(ref); err == nil {
		t.Error("differing cycles accepted")
	}
}
