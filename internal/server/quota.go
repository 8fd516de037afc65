package server

// Per-tenant quotas. The design deliberately adds NO second enforcement
// path inside the pipeline: a tenant's cycle quota is applied by
// setting cm2.Control.MaxCycles on its jobs, so the kill site, the
// determinism guarantee, and the rt.ErrBudget error chain are exactly
// the ones PR 4's watchdog already proved. The server only decides the
// number; the runtime enforces it. The admission-side quotas (source
// bytes, in-flight jobs) are checked before any pipeline work starts.

import (
	"sync"
)

// Quotas are the per-tenant admission and execution bounds. The zero
// value of any field disables that bound.
type Quotas struct {
	// MaxInFlight bounds a tenant's jobs that are queued or running at
	// once; excess admissions get 429 tenant_busy.
	MaxInFlight int
	// MaxCycles caps the modeled-cycle budget of any single job. A
	// request may ask for less, never more; a job with no request
	// budget gets this cap (or the service default if smaller).
	MaxCycles float64
	// MaxSourceBytes bounds the program source accepted from a tenant;
	// larger requests get 413 before any admission work.
	MaxSourceBytes int
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	inflight int
	admitted int64
	rejected int64 // 429 tenant_busy rejections
}

// tenants tracks per-tenant in-flight counts and counters under one
// lock; operations are O(1) and called once per request.
type tenants struct {
	mu sync.Mutex
	q  Quotas
	m  map[string]*tenantState
}

func newTenants(q Quotas) *tenants {
	return &tenants{q: q, m: map[string]*tenantState{}}
}

// acquire admits one job for tenant, reporting false when the tenant is
// at its in-flight quota. On success the caller must release exactly
// once.
func (t *tenants) acquire(tenant string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m[tenant]
	if st == nil {
		st = &tenantState{}
		t.m[tenant] = st
	}
	if t.q.MaxInFlight > 0 && st.inflight >= t.q.MaxInFlight {
		st.rejected++
		return false
	}
	st.inflight++
	st.admitted++
	return true
}

// adopt takes an in-flight slot for a journal-recovered job without the
// quota check: the job was already admitted in a prior epoch, and
// re-running the check now would turn a restart into data loss.
func (t *tenants) adopt(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m[tenant]
	if st == nil {
		st = &tenantState{}
		t.m[tenant] = st
	}
	st.inflight++
	st.admitted++
}

// release returns one in-flight slot.
func (t *tenants) release(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.m[tenant]; st != nil && st.inflight > 0 {
		st.inflight--
	}
}

// TenantStats is one tenant's snapshot for /statsz.
type TenantStats struct {
	InFlight int   `json:"in_flight"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
}

// snapshot copies the table for /statsz.
func (t *tenants) snapshot() map[string]TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]TenantStats, len(t.m))
	for name, st := range t.m {
		out[name] = TenantStats{InFlight: st.inflight, Admitted: st.admitted, Rejected: st.rejected}
	}
	return out
}

// budget resolves the effective cycle budget for a job: the requested
// budget when given (clamped to the tenant cap), else the tenant cap,
// else the service default (which the driver applies). Returns 0 to
// mean "leave it to the service default".
func (q Quotas) budget(requested float64) float64 {
	switch {
	case requested > 0 && q.MaxCycles > 0 && requested > q.MaxCycles:
		return q.MaxCycles
	case requested > 0:
		return requested
	default:
		return q.MaxCycles
	}
}
