#include "obs/exporters.h"

#include "common/strings.h"

namespace fuxi::obs {
namespace {

constexpr double kMicrosPerVirtualSecond = 1e6;

Json SpanToEvent(const SpanRecord& span) {
  Json event = Json::MakeObject();
  event["ph"] = "X";
  event["cat"] = span.category;
  event["name"] = span.name;
  event["ts"] = span.begin * kMicrosPerVirtualSecond;
  event["dur"] = (span.end - span.begin) * kMicrosPerVirtualSecond;
  event["pid"] = 0;
  // Lane the viewer groups by: the receiving node for messages, a
  // shared lane for local spans.
  event["tid"] = span.to >= 0 ? span.to : int64_t{0};
  Json args = Json::MakeObject();
  args["span"] = span.id;
  if (span.parent != 0) args["parent"] = span.parent;
  if (span.from >= 0) args["from"] = span.from;
  if (span.to >= 0) args["to"] = span.to;
  if (span.bytes > 0) args["bytes"] = span.bytes;
  if (span.dropped) args["dropped"] = true;
  if (span.wall_us >= 0) args["wall_us"] = span.wall_us;
  event["args"] = std::move(args);
  return event;
}

/// RFC 4180 field quoting: names containing commas, quotes, or
/// newlines are wrapped in double quotes with embedded quotes doubled.
/// Metric names are caller-chosen strings, so the CSV export must not
/// let one odd name shear every subsequent column.
std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

Json ChromeTraceJson(const std::vector<SpanRecord>& spans) {
  Json events = Json::MakeArray();
  for (const SpanRecord& span : spans) events.Append(SpanToEvent(span));
  Json doc = Json::MakeObject();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

std::string ExportChromeTrace(const std::vector<SpanRecord>& spans) {
  return ChromeTraceJson(spans).Dump();
}

Json MetricsToJson(const MetricsRegistry& registry) {
  Json doc = Json::MakeObject();
  Json counters = Json::MakeObject();
  for (const auto& [name, counter] : registry.counters()) {
    counters[name] = counter->value();
  }
  doc["counters"] = std::move(counters);
  Json gauges = Json::MakeObject();
  for (const auto& [name, gauge] : registry.gauges()) {
    gauges[name] = gauge->value();
  }
  doc["gauges"] = std::move(gauges);
  Json histograms = Json::MakeObject();
  for (const auto& [name, histogram] : registry.histograms()) {
    Json h = Json::MakeObject();
    h["count"] = histogram->count();
    h["mean"] = histogram->mean();
    h["min"] = histogram->min();
    h["max"] = histogram->max();
    h["p50"] = histogram->Percentile(50);
    h["p95"] = histogram->Percentile(95);
    h["p99"] = histogram->Percentile(99);
    histograms[name] = std::move(h);
  }
  doc["histograms"] = std::move(histograms);
  return doc;
}

std::string MetricsToCsv(const MetricsRegistry& registry) {
  std::string out = "kind,name,count,value,mean,p50,p95,p99,min,max,realtime\n";
  for (const auto& [name, counter] : registry.counters()) {
    out += StrFormat("counter,%s,,%llu,,,,,,,%d\n", CsvField(name).c_str(),
                     static_cast<unsigned long long>(counter->value()),
                     registry.is_realtime(name) ? 1 : 0);
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    out += StrFormat("gauge,%s,,%.6g,,,,,,,%d\n", CsvField(name).c_str(),
                     gauge->value(), registry.is_realtime(name) ? 1 : 0);
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    out += StrFormat(
        "histogram,%s,%llu,,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%d\n",
        CsvField(name).c_str(),
        static_cast<unsigned long long>(histogram->count()),
        histogram->mean(), histogram->Percentile(50),
        histogram->Percentile(95), histogram->Percentile(99),
        histogram->min(), histogram->max(),
        registry.is_realtime(name) ? 1 : 0);
  }
  return out;
}

std::string StripRealtimeRows(const std::string& csv) {
  std::string out;
  out.reserve(csv.size());
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t end = csv.find('\n', pos);
    if (end == std::string::npos) end = csv.size();
    // The realtime flag is the last comma-separated field; quoted
    // metric names never contain a bare ",1"/",0" suffix ambiguity
    // because the flag is always the final two characters of the row.
    bool realtime = end >= pos + 2 && csv.compare(end - 2, 2, ",1") == 0;
    if (!realtime) out.append(csv, pos, end - pos + 1);
    pos = end + 1;
  }
  return out;
}

}  // namespace fuxi::obs
