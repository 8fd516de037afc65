package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// modelCycles is the modeled cycle split both the CLI report and the
// server response carry.
type modelCycles struct {
	PE, Comm, Host float64
}

func (c modelCycles) total() float64 { return c.PE + c.Comm + c.Host }

// parseCyclesLine finds f90yrun's "cycles: pe N, comm N, host N | flops N"
// report line in its stderr.
func parseCyclesLine(stderr string) (modelCycles, error) {
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(line, "cycles: ") {
			continue
		}
		var c modelCycles
		var flops int64
		if _, err := fmt.Sscanf(line, "cycles: pe %f, comm %f, host %f | flops %d", &c.PE, &c.Comm, &c.Host, &flops); err != nil {
			return modelCycles{}, fmt.Errorf("unparsable cycles line %q: %v", line, err)
		}
		return c, nil
	}
	return modelCycles{}, fmt.Errorf("no cycles line in the run report")
}

// runResponse is the part of f90yd's POST /v1/run response the benchmark
// reads.
type runResponse struct {
	Status  string  `json:"status"`
	Cached  bool    `json:"cached"`
	QueueMS float64 `json:"queue_ms"`
	RunMS   float64 `json:"run_ms"`
	Result  *struct {
		Cycles *struct {
			Host  float64 `json:"host"`
			PE    float64 `json:"pe"`
			Comm  float64 `json:"comm"`
			Total float64 `json:"total"`
		} `json:"cycles"`
		Output []string `json:"output"`
	} `json:"result"`
}

// parseRunResponse decodes a 200 response body into its output (joined
// as the CLI prints it, one line each) and cycle split.
func parseRunResponse(body []byte) (runResponse, string, modelCycles, error) {
	var r runResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, "", modelCycles{}, fmt.Errorf("unparsable response: %v", err)
	}
	if r.Status != "done" || r.Result == nil || r.Result.Cycles == nil {
		return r, "", modelCycles{}, fmt.Errorf("response without a finished result (status %q)", r.Status)
	}
	c := modelCycles{PE: r.Result.Cycles.PE, Comm: r.Result.Cycles.Comm, Host: r.Result.Cycles.Host}
	if c.total() != r.Result.Cycles.Total {
		return r, "", modelCycles{}, fmt.Errorf("response cycles.total %v is not host+pe+comm %v", r.Result.Cycles.Total, c.total())
	}
	return r, joinOutput(r.Result.Output), c, nil
}

// joinOutput renders program output lines the way f90yrun prints them.
func joinOutput(lines []string) string {
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
