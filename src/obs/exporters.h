#ifndef FUXI_OBS_EXPORTERS_H_
#define FUXI_OBS_EXPORTERS_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace fuxi::obs {

/// Serializes spans as Chrome `trace_event` JSON — complete ("ph":"X")
/// events with microsecond timestamps derived from virtual seconds —
/// loadable in Perfetto / chrome://tracing. Each event's args carry the
/// causal links (span/parent ids), endpoints, byte size, drop flag and,
/// when measured, the real wall-clock cost.
std::string ExportChromeTrace(const std::vector<SpanRecord>& spans);

/// Same document as a Json value, for tests that inspect the dump; its
/// traceEvents and displayTimeUnit are the incident bundle's trace
/// sections (chaos::IncidentJson).
Json ChromeTraceJson(const std::vector<SpanRecord>& spans);

/// All instruments as one JSON object.
Json MetricsToJson(const MetricsRegistry& registry);

/// "kind,name,value,..." CSV — one row per instrument, sorted by name.
/// The trailing `realtime` column is 1 for instruments tagged via
/// MetricsRegistry::MarkRealtime (real wall-clock measurements that
/// legitimately vary between byte-identical simulation runs).
std::string MetricsToCsv(const MetricsRegistry& registry);

/// Drops every row whose trailing `realtime` column is 1 (header and
/// deterministic rows pass through untouched). Determinism batteries
/// compare serial/parallel and replayed metric dumps through this
/// filter instead of maintaining name lists of wall-clock instruments.
std::string StripRealtimeRows(const std::string& csv);

}  // namespace fuxi::obs

#endif  // FUXI_OBS_EXPORTERS_H_
