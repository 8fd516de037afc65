package server

// Error taxonomy: every failure mode the server can produce maps to
// exactly one HTTP status and one machine-readable JSON code, and the
// expected failure modes of a healthy-but-loaded server (budget kills,
// queue overflow, quota rejection, drain) are NEVER 500s. The same
// underlying sentinels drive the CLI exit statuses, so the two tables
// below are one taxonomy with two surfaces. README.md ("Status and
// exit codes") carries the same table; keep them in sync.
//
// CLI (f90yrun):
//
//	exit 0  success
//	exit 1  compile/runtime error, fault fatal, numeric trap, verify divergence
//	exit 2  usage (bad flags/spec)
//	exit 3  wall-clock deadline   (f90y.ErrCanceled via -timeout)
//	exit 4  cycle-budget kill     (rt.ErrBudget via -max-cycles)
//
// Server (f90yd), status → code:
//
//	200  —                 success (sync run / compile / job fetch)
//	202  —                 async job admitted
//	400  bad_request       malformed JSON, unknown target/field values
//	404  not_found         unknown job id or route
//	408  deadline_exceeded per-request deadline expired mid-run
//	413  source_too_large  source exceeds the per-tenant byte bound
//	422  compile_error     the program does not compile (deterministic; cached)
//	422  run_error         the program compiled but faulted at runtime
//	422  budget_exhausted  the cycle watchdog killed the run (rt.ErrBudget)
//	422  numeric_trap      the numeric plane trapped a NaN/Inf (rt.ErrNumeric)
//	422  fault_fatal       an injected fatal fault killed the run (faults.ErrFatal)
//	422  verify_failed     the differential oracle found a divergence
//	429  queue_full        admission queue at capacity      (+ Retry-After)
//	429  tenant_busy       tenant at its in-flight quota    (+ Retry-After)
//	499  client_closed     the client went away mid-run (nginx convention)
//	503  draining          server is draining: admission refused, or an
//	                       in-flight run was budget-killed past the grace
//	                       (+ Retry-After)
//	503  suspended         drain checkpointed this run; the job id stays
//	                       valid and the run resumes bit-identically after
//	                       restart (+ Retry-After; needs -state-dir)
//	500  internal          anything not in this table (a bug by definition)
//
// 4xx are the caller's program or the caller's pacing; 503 is the
// operator's lifecycle; 500 is ours. The server harness (swebench
// -serve, behind make serve-smoke and crash-smoke) asserts that expected
// failure injections produce only the statuses above, never 500.

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"f90y/internal/faults"
	"f90y/internal/rt"
)

// Code is the machine-readable error code carried in every non-2xx
// JSON body as {"error": {"code": ..., "message": ...}}.
type Code string

const (
	CodeBadRequest     Code = "bad_request"
	CodeNotFound       Code = "not_found"
	CodeDeadline       Code = "deadline_exceeded"
	CodeSourceTooLarge Code = "source_too_large"
	CodeCompile        Code = "compile_error"
	CodeRun            Code = "run_error"
	CodeBudget         Code = "budget_exhausted"
	CodeNumericTrap    Code = "numeric_trap"
	CodeFaultFatal     Code = "fault_fatal"
	CodeVerifyFailed   Code = "verify_failed"
	CodeQueueFull      Code = "queue_full"
	CodeTenantBusy     Code = "tenant_busy"
	CodeClientClosed   Code = "client_closed"
	CodeDraining       Code = "draining"
	CodeSuspended      Code = "suspended"
	CodeInternal       Code = "internal"
)

// StatusClientClosed is nginx's non-standard 499: the client closed the
// connection before the response. The status is recorded in stats and
// written best-effort (the client is usually gone).
const StatusClientClosed = 499

// Cancellation causes: Drain and the sync handler cancel job contexts
// with these, so classify can tell a drain kill from a vanished client
// from an expired deadline — all three surface as rt.ErrCanceled chains.
var (
	// ErrDraining is the cancel cause used when Drain's grace period
	// expires and in-flight jobs are force-killed.
	ErrDraining = errors.New("server draining")
	// ErrClientClosed is the cancel cause used when the requesting
	// client disconnects before its synchronous job completes.
	ErrClientClosed = errors.New("client closed request")
	// ErrSuspended is returned from the durable checkpoint hook when a
	// drain is in progress: the run stops at the boundary it just
	// spilled, and recovery resumes it from that spill after restart.
	ErrSuspended = errors.New("job suspended for restart; poll the job id after the server returns")
)

// classify maps a job error to its HTTP status and code. compileFailed
// distinguishes a pipeline failure (the artifact never existed) from a
// runtime failure of a compiled program; both are the caller's program,
// not the server, hence 422.
func classify(err error, compileFailed bool) (int, Code) {
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.Is(err, rt.ErrBudget):
		return http.StatusUnprocessableEntity, CodeBudget
	case errors.Is(err, rt.ErrNumeric):
		return http.StatusUnprocessableEntity, CodeNumericTrap
	case errors.Is(err, faults.ErrFatal):
		return http.StatusUnprocessableEntity, CodeFaultFatal
	case errors.Is(err, ErrSuspended):
		return http.StatusServiceUnavailable, CodeSuspended
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, ErrClientClosed):
		return StatusClientClosed, CodeClientClosed
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, CodeDeadline
	case errors.Is(err, rt.ErrCanceled):
		// Canceled without a more specific cause: the client (or its
		// proxy) tore the context down.
		return StatusClientClosed, CodeClientClosed
	case compileFailed:
		return http.StatusUnprocessableEntity, CodeCompile
	default:
		// A compiled program that failed at runtime (shape/operand/
		// dispatch errors) is still the caller's program.
		return http.StatusUnprocessableEntity, CodeRun
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS accompanies 429s, mirroring the Retry-After header
	// with finer grain.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// errorf builds the envelope.
func errorf(code Code, format string, args ...any) apiError {
	return apiError{Error: apiErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}}
}
