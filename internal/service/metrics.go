package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"icpic3/internal/engine"
	"icpic3/internal/ic3icp"
)

// latencyBuckets are the upper bounds of the job-latency histogram.
var latencyBuckets = [...]time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
	60 * time.Second,
}

// histogram is a fixed-bucket latency histogram (last bucket = +Inf).
type histogram struct {
	buckets [len(latencyBuckets) + 1]int64
	sum     time.Duration
	count   int64
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if d <= latencyBuckets[i] {
			break
		}
	}
	h.buckets[i]++
	h.sum += d
	h.count++
}

// Metrics aggregates service counters and per-engine latency histograms.
// WriteText renders them deterministically (sorted keys), so tests and
// scrapers can diff successive snapshots.
type Metrics struct {
	mu sync.Mutex

	// Every counter below is guarded-by: mu (lockguard enforces this).
	submitted   int64 // guarded-by: mu
	rejected    int64 // guarded-by: mu; bad requests (parse/validate/engine errors)
	busy        int64 // guarded-by: mu; submissions refused because the queue was full
	cancelled   int64 // guarded-by: mu
	cacheHits   int64 // guarded-by: mu
	cacheMisses int64 // guarded-by: mu
	coalesced   int64 // guarded-by: mu; submissions attached to an identical in-flight job
	cacheFills  int64 // guarded-by: mu
	evictions   int64 // guarded-by: mu

	panics     int64 // guarded-by: mu; engine attempts that panicked (recovered by Guard)
	stalled    int64 // guarded-by: mu; engine attempts killed by the progress watchdog
	retried    int64 // guarded-by: mu; retries of panicked/stalled attempts
	degraded   int64 // guarded-by: mu; retries that fell back to a different engine
	certified  int64 // guarded-by: mu; decisive results that passed independent re-checking
	certFailed int64 // guarded-by: mu; decisive results demoted to Unknown by certification

	quotaRejected   int64 // guarded-by: mu; submissions refused by a tenant's token bucket
	shedDeadline    int64 // guarded-by: mu; dequeued jobs shed for exhausted end-to-end budget
	shedBrownout    int64 // guarded-by: mu; submissions refused at brownout level 3
	shedDrain       int64 // guarded-by: mu; queued jobs shed by a shutdown drain
	brownoutLevel   int64 // guarded-by: mu; current brownout level (gauge, 0..3)
	brownoutChanges int64 // guarded-by: mu; brownout level transitions
	breakerTrips    int64 // guarded-by: mu; breaker closed/half-open -> open transitions
	breakerProbes   int64 // guarded-by: mu; half-open probe jobs admitted
	breakerShorted  int64 // guarded-by: mu; jobs routed past an open breaker's engine
	certSkipped     int64 // guarded-by: mu; decisive results served uncertified by brownout

	tenants  map[string]*tenantCounters // guarded-by: mu; per-tenant admission accounting
	breakers *breaker                   // per-engine open-ness gauges (may be nil; set before publication)

	engineCounters map[string]int64 // guarded-by: mu; ic3icp.Counters summed over finished runs

	reuseLookups   int64   // guarded-by: mu; certificate-store lookups (reuse-capable jobs)
	reuseHits      int64   // guarded-by: mu; lookups that produced usable seed hints
	clausesSeeded  int64   // guarded-by: mu; prior-proof clauses that survived re-checking
	clausesDropped int64   // guarded-by: mu; prior-proof clauses dropped as stale/corrupt
	seededRuns     int64   // guarded-by: mu; engine runs started from a prior certificate
	seededSeconds  float64 // guarded-by: mu
	coldRuns       int64   // guarded-by: mu; engine runs with no usable prior certificate
	coldSeconds    float64 // guarded-by: mu

	completed map[string]int64      // guarded-by: mu; "engine\x00verdict" -> count
	latency   map[string]*histogram // guarded-by: mu; engine -> histogram
}

// tenantCounters is one tenant's admission ledger.
type tenantCounters struct {
	submitted     int64
	quotaRejected int64
	shed          int64 // brownout + deadline + drain sheds of this tenant
}

func newMetrics() *Metrics {
	return &Metrics{
		completed: make(map[string]int64),
		latency:   make(map[string]*histogram),
		tenants:   make(map[string]*tenantCounters),

		engineCounters: make(map[string]int64),
	}
}

// tenantLocked resolves a tenant's ledger; caller holds mu.  The empty
// tenant renders as "default" so the exposition label is never empty.
func (m *Metrics) tenantLocked(tenant string) *tenantCounters {
	if tenant == "" {
		tenant = "default"
	}
	t := m.tenants[tenant]
	if t == nil {
		t = &tenantCounters{}
		m.tenants[tenant] = t
	}
	return t
}

func (m *Metrics) incTenantSubmitted(tenant string) {
	m.mu.Lock()
	m.tenantLocked(tenant).submitted++
	m.mu.Unlock()
}

func (m *Metrics) incQuotaRejected(tenant string) {
	m.mu.Lock()
	m.quotaRejected++
	m.tenantLocked(tenant).quotaRejected++
	m.mu.Unlock()
}

func (m *Metrics) incShedDeadline(tenant string) {
	m.mu.Lock()
	m.shedDeadline++
	m.tenantLocked(tenant).shed++
	m.mu.Unlock()
}

func (m *Metrics) incShedBrownout(tenant string) {
	m.mu.Lock()
	m.shedBrownout++
	m.tenantLocked(tenant).shed++
	m.mu.Unlock()
}

func (m *Metrics) incShedDrain(tenant string) {
	m.mu.Lock()
	m.shedDrain++
	m.tenantLocked(tenant).shed++
	m.mu.Unlock()
}

func (m *Metrics) setBrownoutLevel(level int) {
	m.mu.Lock()
	m.brownoutLevel = int64(level)
	m.brownoutChanges++
	m.mu.Unlock()
}

func (m *Metrics) incBreakerTrip()         { m.mu.Lock(); m.breakerTrips++; m.mu.Unlock() }
func (m *Metrics) incBreakerProbe()        { m.mu.Lock(); m.breakerProbes++; m.mu.Unlock() }
func (m *Metrics) incBreakerShortCircuit() { m.mu.Lock(); m.breakerShorted++; m.mu.Unlock() }
func (m *Metrics) incCertSkippedBrownout() { m.mu.Lock(); m.certSkipped++; m.mu.Unlock() }

// Overload counter accessors (for tests and logs).
func (m *Metrics) QuotaRejected() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.quotaRejected }
func (m *Metrics) ShedDeadline() int64  { m.mu.Lock(); defer m.mu.Unlock(); return m.shedDeadline }
func (m *Metrics) ShedBrownout() int64  { m.mu.Lock(); defer m.mu.Unlock(); return m.shedBrownout }
func (m *Metrics) ShedDrain() int64     { m.mu.Lock(); defer m.mu.Unlock(); return m.shedDrain }
func (m *Metrics) Shed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shedDeadline + m.shedBrownout + m.shedDrain
}
func (m *Metrics) BrownoutLevel() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.brownoutLevel }
func (m *Metrics) BreakerTrips() int64  { m.mu.Lock(); defer m.mu.Unlock(); return m.breakerTrips }
func (m *Metrics) BreakerProbes() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.breakerProbes }
func (m *Metrics) BreakerShortCircuits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.breakerShorted
}
func (m *Metrics) CertSkippedBrownout() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.certSkipped
}

func (m *Metrics) incSubmitted() { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *Metrics) incRejected()  { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *Metrics) incBusy()      { m.mu.Lock(); m.busy++; m.mu.Unlock() }
func (m *Metrics) incCancelled() { m.mu.Lock(); m.cancelled++; m.mu.Unlock() }
func (m *Metrics) incHit()       { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *Metrics) incMiss()      { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }
func (m *Metrics) incCoalesced() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }

func (m *Metrics) incReuseLookup() { m.mu.Lock(); m.reuseLookups++; m.mu.Unlock() }
func (m *Metrics) incReuseHit()    { m.mu.Lock(); m.reuseHits++; m.mu.Unlock() }

// recordReuse attributes a finished engine run to the seeded or cold
// population (the ratio of their mean runtimes is the reuse speedup)
// and accumulates the engine's clause seeding counters.
func (m *Metrics) recordReuse(seeded bool, res engine.Result) {
	m.mu.Lock()
	if seeded {
		m.seededRuns++
		m.seededSeconds += res.Runtime.Seconds()
	} else {
		m.coldRuns++
		m.coldSeconds += res.Runtime.Seconds()
	}
	if res.Stats != nil {
		m.clausesSeeded += res.Stats["seedInstalled"]
		m.clausesDropped += res.Stats["seedDropped"]
	}
	m.mu.Unlock()
}

// recordWorkProfile accumulates a finished engine run's work counters
// (the ic3icp.Counters table) so operators can see, fleet-wide, how
// much consecution work triggering and the memo save and how often
// frame solvers rebuild.
func (m *Metrics) recordWorkProfile(res engine.Result) {
	if res.Stats == nil {
		return
	}
	m.mu.Lock()
	for _, c := range ic3icp.Counters {
		m.engineCounters[c.Key] += res.Stats[c.Key]
	}
	m.mu.Unlock()
}

// EngineCounter returns one summed work counter by its Result.Stats key
// (for tests and logs).
func (m *Metrics) EngineCounter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engineCounters[name]
}

func (m *Metrics) incPanics()     { m.mu.Lock(); m.panics++; m.mu.Unlock() }
func (m *Metrics) incStalled()    { m.mu.Lock(); m.stalled++; m.mu.Unlock() }
func (m *Metrics) incRetried()    { m.mu.Lock(); m.retried++; m.mu.Unlock() }
func (m *Metrics) incDegraded()   { m.mu.Lock(); m.degraded++; m.mu.Unlock() }
func (m *Metrics) incCertified()  { m.mu.Lock(); m.certified++; m.mu.Unlock() }
func (m *Metrics) incCertFailed() { m.mu.Lock(); m.certFailed++; m.mu.Unlock() }

// Reuse counter accessors (for tests and logs).
func (m *Metrics) ReuseLookups() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.reuseLookups }
func (m *Metrics) ReuseHits() int64    { m.mu.Lock(); defer m.mu.Unlock(); return m.reuseHits }
func (m *Metrics) ClausesSeeded() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clausesSeeded
}
func (m *Metrics) ClausesDropped() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clausesDropped
}

// ReuseSpeedup returns the ratio of mean cold runtime to mean seeded
// runtime (> 1 means seeding pays off); 0 until both populations have
// at least one run.
func (m *Metrics) ReuseSpeedup() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reuseSpeedupLocked()
}

func (m *Metrics) reuseSpeedupLocked() float64 {
	if m.seededRuns == 0 || m.coldRuns == 0 || m.seededSeconds <= 0 {
		return 0
	}
	return (m.coldSeconds / float64(m.coldRuns)) / (m.seededSeconds / float64(m.seededRuns))
}

// Robustness counter accessors (for tests and logs).
func (m *Metrics) Panics() int64     { m.mu.Lock(); defer m.mu.Unlock(); return m.panics }
func (m *Metrics) Stalled() int64    { m.mu.Lock(); defer m.mu.Unlock(); return m.stalled }
func (m *Metrics) Retried() int64    { m.mu.Lock(); defer m.mu.Unlock(); return m.retried }
func (m *Metrics) Degraded() int64   { m.mu.Lock(); defer m.mu.Unlock(); return m.degraded }
func (m *Metrics) Certified() int64  { m.mu.Lock(); defer m.mu.Unlock(); return m.certified }
func (m *Metrics) CertFailed() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.certFailed }

func (m *Metrics) recordFill(evicted bool) {
	m.mu.Lock()
	m.cacheFills++
	if evicted {
		m.evictions++
	}
	m.mu.Unlock()
}

// recordCompleted counts a finished engine run and its latency.
func (m *Metrics) recordCompleted(engineName, verdict string, d time.Duration) {
	m.mu.Lock()
	m.completed[engineName+"\x00"+verdict]++
	h := m.latency[engineName]
	if h == nil {
		h = &histogram{}
		m.latency[engineName] = h
	}
	h.observe(d)
	m.mu.Unlock()
}

// CacheHits returns the number of cache hits served (for tests/logs).
func (m *Metrics) CacheHits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits
}

// CacheFills returns the number of cache fills performed.
func (m *Metrics) CacheFills() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheFills
}

// WriteText renders all metrics as deterministic plain text, one
// `name value` pair per line in the Prometheus exposition style.
func (m *Metrics) WriteText(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	var lines []string
	add := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	add("icpserve_cache_coalesced_total %d", m.coalesced)
	add("icpserve_cache_evictions_total %d", m.evictions)
	add("icpserve_cache_fills_total %d", m.cacheFills)
	add("icpserve_cache_hits_total %d", m.cacheHits)
	add("icpserve_cache_misses_total %d", m.cacheMisses)
	add("icpserve_jobs_busy_total %d", m.busy)
	add("icpserve_jobs_cancelled_total %d", m.cancelled)
	add("icpserve_jobs_rejected_total %d", m.rejected)
	add("icpserve_jobs_submitted_total %d", m.submitted)
	add("icpserve_jobs_quota_rejected_total %d", m.quotaRejected)
	add("icpserve_jobs_shed_total %d", m.shedDeadline+m.shedBrownout+m.shedDrain)
	add(`icpserve_jobs_shed_total{reason="deadline"} %d`, m.shedDeadline)
	add(`icpserve_jobs_shed_total{reason="brownout"} %d`, m.shedBrownout)
	add(`icpserve_jobs_shed_total{reason="drain"} %d`, m.shedDrain)
	add("icpserve_brownout_level %d", m.brownoutLevel)
	add("icpserve_brownout_transitions_total %d", m.brownoutChanges)
	add("icpserve_breaker_trips_total %d", m.breakerTrips)
	add("icpserve_breaker_probes_total %d", m.breakerProbes)
	add("icpserve_breaker_short_circuited_total %d", m.breakerShorted)
	add("icpserve_results_cert_skipped_brownout_total %d", m.certSkipped)
	if m.breakers != nil {
		engines, open := m.breakers.snapshot()
		for i, e := range engines {
			add("icpserve_breaker_open{engine=%q} %d", e, open[i])
		}
	}
	for name, t := range m.tenants {
		add("icpserve_tenant_submitted_total{tenant=%q} %d", name, t.submitted)
		add("icpserve_tenant_quota_rejected_total{tenant=%q} %d", name, t.quotaRejected)
		add("icpserve_tenant_shed_total{tenant=%q} %d", name, t.shed)
	}
	add("icpserve_jobs_panics_total %d", m.panics)
	add("icpserve_jobs_stalled_total %d", m.stalled)
	add("icpserve_jobs_retried_total %d", m.retried)
	add("icpserve_jobs_degraded_total %d", m.degraded)
	add("icpserve_results_certified_total %d", m.certified)
	add("icpserve_results_cert_failed_total %d", m.certFailed)
	for _, c := range ic3icp.Counters {
		add("icpserve_engine_counter_total{name=%q} %d", c.Key, m.engineCounters[c.Key])
	}
	add("icpserve_reuse_lookups_total %d", m.reuseLookups)
	add("icpserve_reuse_hits_total %d", m.reuseHits)
	add("icpserve_reuse_clauses_seeded_total %d", m.clausesSeeded)
	add("icpserve_reuse_clauses_dropped_total %d", m.clausesDropped)
	add("icpserve_reuse_seeded_runs_total %d", m.seededRuns)
	add("icpserve_reuse_seeded_seconds_sum %g", m.seededSeconds)
	add("icpserve_reuse_cold_runs_total %d", m.coldRuns)
	add("icpserve_reuse_cold_seconds_sum %g", m.coldSeconds)
	add("icpserve_reuse_speedup_ratio %g", m.reuseSpeedupLocked())
	for key, n := range m.completed {
		parts := strings.SplitN(key, "\x00", 2)
		add("icpserve_jobs_completed_total{engine=%q,verdict=%q} %d", parts[0], parts[1], n)
	}
	for name, h := range m.latency {
		cum := int64(0)
		for i, b := range h.buckets {
			cum += b
			le := "+Inf"
			if i < len(latencyBuckets) {
				le = fmt.Sprintf("%g", latencyBuckets[i].Seconds())
			}
			add("icpserve_job_seconds_bucket{engine=%q,le=%q} %d", name, le, cum)
		}
		add("icpserve_job_seconds_count{engine=%q} %d", name, h.count)
		add("icpserve_job_seconds_sum{engine=%q} %g", name, h.sum.Seconds())
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// String renders the metrics as text (see WriteText).
func (m *Metrics) String() string {
	var b strings.Builder
	m.WriteText(&b)
	return b.String()
}
