#ifndef FUXI_OBS_OBSERVABILITY_H_
#define FUXI_OBS_OBSERVABILITY_H_

#include <cstddef>

#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace fuxi::obs {

struct ObsOptions {
  /// Completed spans retained by the flight recorder ring.
  size_t trace_ring_capacity = TraceRecorder::kDefaultRingCapacity;
  /// Decision records retained by the audit ring.
  size_t audit_ring_capacity = AuditLog::kDefaultCapacity;
  /// Virtual-time sampler + SLO watchdog configuration.
  TelemetryOptions telemetry;
};

/// The per-cluster observability bundle: one trace recorder, one
/// decision audit log, one metrics registry, one telemetry sampler and
/// one SLO watchdog shared by every component of a SimCluster. Owned by
/// the cluster (constructed right after the Simulator, before the
/// network) so instruments outlive everything that points at them.
struct Observability {
  explicit Observability(sim::Simulator* sim, const ObsOptions& options = {})
      : trace(sim, options.trace_ring_capacity),
        audit(sim, &trace, options.audit_ring_capacity),
        telemetry(&metrics, options.telemetry),
        watchdog(&trace, &audit, options.telemetry.max_events) {
    // Every sample tick runs the watchdog's rules; with telemetry
    // disabled the sampler never ticks and the lambda never fires.
    telemetry.SetOnSample(
        [this](double now) { watchdog.Evaluate(telemetry, now); });
  }

  TraceRecorder trace;
  AuditLog audit;
  MetricsRegistry metrics;
  TelemetrySampler telemetry;
  SloWatchdog watchdog;
};

}  // namespace fuxi::obs

#endif  // FUXI_OBS_OBSERVABILITY_H_
