package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"nuevomatch/internal/core"
)

// latencyBounds are the serve-latency histogram bucket upper bounds in
// microseconds: the interesting band runs from "one singleton batch" to
// "something is badly stalled".
var latencyBounds = [...]float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000}

// Metrics is the serving tier's hand-rolled metric set. All fields are
// plain atomics — no dependencies — and are exported as Prometheus text
// format by WritePrometheus. Counters only ever increase; gauges are
// snapshots. Readers update them once per wake-up (Add(n)), not per request.
type Metrics struct {
	ConnectionsTotal atomic.Uint64 // accepted connections, lifetime
	ActiveConns      atomic.Int64  // currently open connections
	RequestsTotal    atomic.Uint64 // request frames decoded
	ResponsesTotal   atomic.Uint64 // response frames written
	ReadErrors       atomic.Uint64 // reader-loop failures (excl. clean EOF)
	WriteErrors      atomic.Uint64 // responses dropped because their connection's write failed
	BatchesTotal     atomic.Uint64 // LookupBatch calls issued; fill = requests/batches
	Reloads          atomic.Uint64 // successful backend swaps
	ReloadFailures   atomic.Uint64 // rejected/failed reload attempts

	// Serve latency histogram: from a wake-up's first frame read to its
	// responses written, counted once per request it answered.
	latCount   atomic.Uint64
	latSumNS   atomic.Uint64
	latBuckets [len(latencyBounds)]atomic.Uint64
}

// observeLatency records that n requests were each answered d after they
// were read.
func (m *Metrics) observeLatency(d time.Duration, n uint64) {
	m.latCount.Add(n)
	m.latSumNS.Add(uint64(d) * n)
	us := float64(d) / float64(time.Microsecond)
	for i, b := range latencyBounds {
		if us <= b {
			m.latBuckets[i].Add(n)
			break
		}
	}
}

// MetricsSnapshot is a consistent-enough point-in-time copy of the serving
// metrics, for tests and the bench harness. Latency quantiles are
// interpolated from the histogram.
type MetricsSnapshot struct {
	ConnectionsTotal uint64
	ActiveConns      int64
	RequestsTotal    uint64
	ResponsesTotal   uint64
	ReadErrors       uint64
	WriteErrors      uint64
	BatchesTotal     uint64
	BatchFillSum     uint64
	Inflight         int64
	Reloads          uint64
	ReloadFailures   uint64
	LatencyCount     uint64
	LatencyMeanUS    float64
	LatencyP50US     float64
	LatencyP99US     float64
}

// AvgBatchFill is the mean number of requests per issued batch.
func (s MetricsSnapshot) AvgBatchFill() float64 {
	if s.BatchesTotal == 0 {
		return 0
	}
	return float64(s.BatchFillSum) / float64(s.BatchesTotal)
}

// quantile interpolates quantile q (0..1) from the bucket counts, assuming
// uniform mass inside each bucket. Overflow mass is pinned at the last bound.
func (m *Metrics) quantile(q float64) float64 {
	total := m.latCount.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	lo := 0.0
	for i := range latencyBounds {
		n := float64(m.latBuckets[i].Load())
		if cum+n >= target && n > 0 {
			frac := (target - cum) / n
			return lo + frac*(latencyBounds[i]-lo)
		}
		cum += n
		lo = latencyBounds[i]
	}
	return latencyBounds[len(latencyBounds)-1]
}

// inflight is the number of requests read but neither answered nor dropped.
// The answered side is loaded first so a concurrent reader can only make the
// gauge read high, never negative.
func (m *Metrics) inflight() int64 {
	done := m.ResponsesTotal.Load() + m.WriteErrors.Load()
	return int64(m.RequestsTotal.Load() - done)
}

func (m *Metrics) snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		ConnectionsTotal: m.ConnectionsTotal.Load(),
		ActiveConns:      m.ActiveConns.Load(),
		Inflight:         m.inflight(),
		RequestsTotal:    m.RequestsTotal.Load(),
		ResponsesTotal:   m.ResponsesTotal.Load(),
		ReadErrors:       m.ReadErrors.Load(),
		WriteErrors:      m.WriteErrors.Load(),
		BatchesTotal:     m.BatchesTotal.Load(),
		BatchFillSum:     m.RequestsTotal.Load(), // every request read rides exactly one batch
		Reloads:          m.Reloads.Load(),
		ReloadFailures:   m.ReloadFailures.Load(),
		LatencyCount:     m.latCount.Load(),
		LatencyP50US:     m.quantile(0.50),
		LatencyP99US:     m.quantile(0.99),
	}
	if s.LatencyCount > 0 {
		s.LatencyMeanUS = float64(m.latSumNS.Load()) / 1e3 / float64(s.LatencyCount)
	}
	return s
}

// Optional backend capabilities surfaced in /metrics when present. The
// public nuevomatch.Cluster satisfies all three; nuevomatch.Table the first
// (its Stats() returns build stats, not core.ClusterStats, so the cluster
// assertion cleanly fails).
type autopilotStatser interface {
	AutopilotStats() core.AutopilotStats
}
type clusterStatser interface {
	Stats() core.ClusterStats
}
type quarantineLister interface {
	QuarantinedShards() []int
}

// writePrometheus renders the full exposition: serving metrics, health
// state/reasons, and whatever autopilot/cluster stats the backend offers.
func (s *Server) writePrometheus(w io.Writer) {
	m := &s.metrics
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	counter := func(name, help string, v uint64) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		p("# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("nmserve_connections_total", "Accepted data-plane connections.", m.ConnectionsTotal.Load())
	gauge("nmserve_active_connections", "Currently open data-plane connections.", m.ActiveConns.Load())
	counter("nmserve_requests_total", "Classification requests received.", m.RequestsTotal.Load())
	counter("nmserve_responses_total", "Classification responses written.", m.ResponsesTotal.Load())
	counter("nmserve_read_errors_total", "Connection read failures.", m.ReadErrors.Load())
	counter("nmserve_write_errors_total", "Responses dropped by a failed connection write.", m.WriteErrors.Load())
	counter("nmserve_batches_total", "Inference batches issued.", m.BatchesTotal.Load())
	counter("nmserve_batch_fill_sum", "Sum of requests across issued batches.", m.RequestsTotal.Load())
	gauge("nmserve_inflight_requests", "Requests read but not yet answered.", m.inflight())
	counter("nmserve_reloads_total", "Successful backend hot reloads.", m.Reloads.Load())
	counter("nmserve_reload_failures_total", "Failed or rejected reload attempts.", m.ReloadFailures.Load())

	if b := m.BatchesTotal.Load(); b > 0 {
		p("# HELP nmserve_batch_fill_ratio Mean batch fill over the configured batch size.\n# TYPE nmserve_batch_fill_ratio gauge\nnmserve_batch_fill_ratio %g\n",
			float64(m.RequestsTotal.Load())/float64(b)/float64(s.cfg.BatchSize))
	}

	// Latency histogram, Prometheus-cumulative, in seconds.
	p("# HELP nmserve_request_duration_seconds Frame-read-to-response-written latency.\n# TYPE nmserve_request_duration_seconds histogram\n")
	var cum uint64
	for i, b := range latencyBounds {
		cum += m.latBuckets[i].Load()
		p("nmserve_request_duration_seconds_bucket{le=\"%g\"} %d\n", b/1e6, cum)
	}
	p("nmserve_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.latCount.Load())
	p("nmserve_request_duration_seconds_sum %g\n", float64(m.latSumNS.Load())/1e9)
	p("nmserve_request_duration_seconds_count %d\n", m.latCount.Load())

	// Health over the wire: numeric state plus one labelled count per
	// distinct reason code.
	backend := s.Backend()
	h := backend.Health()
	p("# HELP nmserve_health_state Backend health (0 healthy, 1 degraded, 2 failed).\n# TYPE nmserve_health_state gauge\nnmserve_health_state %d\n", int(h.State))
	if len(h.Reasons) > 0 {
		p("# HELP nmserve_health_reasons Current health reasons by code.\n# TYPE nmserve_health_reasons gauge\n")
		byCode := map[string]int{}
		for _, r := range h.Reasons {
			byCode[r.Code]++
		}
		for code, n := range byCode {
			p("nmserve_health_reasons{code=%q} %d\n", code, n)
		}
	}

	if ap, ok := backend.(autopilotStatser); ok {
		st := ap.AutopilotStats()
		counter("nmserve_autopilot_checks_total", "Autopilot drift checks.", uint64(st.Checks))
		counter("nmserve_autopilot_retrains_total", "Autopilot retrains completed.", uint64(st.Retrains))
		counter("nmserve_autopilot_failures_total", "Autopilot retrain failures.", uint64(st.Failures))
		counter("nmserve_autopilot_persist_failures_total", "Autopilot persist failures.", uint64(st.PersistFailures))
		gauge("nmserve_autopilot_consec_failures", "Consecutive retrain failures.", int64(st.ConsecFailures))
	}
	if cs, ok := backend.(clusterStatser); ok {
		st := cs.Stats()
		gauge("nmserve_cluster_shards", "Shards in the served cluster.", int64(st.Shards))
		gauge("nmserve_cluster_live_rules", "Live rules across all shards.", int64(st.LiveRules))
		gauge("nmserve_cluster_replicated_rules", "Rules replicated to multiple shards.", int64(st.Replicated))
	}
	if ql, ok := backend.(quarantineLister); ok {
		gauge("nmserve_cluster_quarantined_shards", "Shards currently serving quarantined fallbacks.", int64(len(ql.QuarantinedShards())))
	}
}
