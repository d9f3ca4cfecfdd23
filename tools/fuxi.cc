// Navigates an incident bundle: the single JSON file a failing chaos
// campaign (or a single-seed replay) writes as fuxi_incident_seed<N>.json
// (chaos::IncidentJson). Each subcommand reads the sections it needs:
//
//   fuxi spans BUNDLE      per-span-name count, drops, bytes and virtual-
//                          latency tables from traceEvents, plus wall-
//                          clock percentiles for scheduler spans; when
//                          auditRecords is present the two are joined on
//                          span id (decisions committed per ambient span)
//   fuxi wire BUNDLE       the per-message-type wire volume (exact
//                          encoded frame sizes) and the parallel-sweep
//                          table from the metrics section
//   fuxi explain BUNDLE [--demand APP [SLOT] | --machine M | --unplaced |
//                        --timeline [M] | --gantt | --tenant [PATH]]
//                          decision-audit queries over auditRecords:
//                          a summary, one demand's or machine's history,
//                          rejection chains of unplaced demands, per-app
//                          utilization (machine M's planner reservations
//                          with an argument), per-machine occupancy, and
//                          hierarchical quota chains; records name their
//                          ambient span when traceEvents is present
//   fuxi dash BUNDLE [--list | --series NAME | --events | --csv | --json]
//                          the telemetry section as an ASCII dashboard
//                          (default), series names, one series tick by
//                          tick, the watchdog timeline, long-form CSV,
//                          or the decoded dump
//
// The audit-only dumps of `bench_fairshare --audit` and
// `bench_planner_utilization` are one-section bundles.
//
// Exit status: 2 for a usage error, an unreadable bundle or a section
// that does not parse; 1 when a section the subcommand needs is absent.
// Only the optional joins (decisions in spans, span names in explain)
// are skipped when their section is absent.

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "obs/audit.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"

namespace {

using fuxi::Json;
using fuxi::obs::CandidateOutcome;
using fuxi::obs::DecisionKind;
using fuxi::obs::DecisionRecord;
using fuxi::obs::RejectReason;
using fuxi::obs::TelemetryDump;

constexpr char kUsage[] =
    "usage: fuxi spans <bundle.json>\n"
    "       fuxi wire <bundle.json>\n"
    "       fuxi explain <bundle.json> [--demand APP [SLOT] | --machine M |\n"
    "                    --unplaced | --timeline [M] | --gantt |\n"
    "                    --tenant [PATH]]\n"
    "       fuxi dash <bundle.json> [--list | --series NAME | --events |\n"
    "                 --csv | --json]\n";

[[noreturn]] void Fail(int status, const char* format, ...) {
  std::fputs("fuxi: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(status);
}

[[noreturn]] void Usage() {
  std::fputs(kUsage, stderr);
  std::exit(2);
}

/// Parses a non-negative decimal id no larger than `max`; the whole
/// argument must be digits, so "2x" or "abc" is a usage error.
int64_t ParseId(const std::string& text, uint64_t max) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value > max) Usage();
  return static_cast<int64_t>(value);
}

// --- the bundle ---------------------------------------------------------

struct Bundle {
  std::string path;
  Json doc;

  /// The named section, or nullptr when it is absent. A section the
  /// caller requires exits 1 when absent.
  const Json* Section(const char* key, bool required) const {
    const Json* section = doc.Find(key);
    if (section == nullptr && required) {
      Fail(1, "%s has no %s section", path.c_str(), key);
    }
    return section;
  }

  [[noreturn]] void Malformed(const char* key) const {
    Fail(2, "%s: the %s section does not parse", path.c_str(), key);
  }
};

Bundle LoadBundle(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail(2, "cannot open %s", path.c_str());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  fuxi::Result<Json> parsed = Json::Parse(buffer.str());
  if (!parsed.ok()) {
    Fail(2, "%s: %s", path.c_str(), parsed.status().message().c_str());
  }
  if (!parsed.value().is_object()) {
    Fail(2, "%s is not a JSON object", path.c_str());
  }
  return Bundle{path, std::move(parsed).value()};
}

struct NameStats {
  uint64_t count = 0;
  uint64_t dropped = 0;
  uint64_t bytes = 0;
  fuxi::Histogram latency_ms;  // virtual dur
  fuxi::Histogram wall_us;     // only spans carrying args.wall_us
};

/// One walk over traceEvents: per-name statistics, and span id -> name
/// for joining audit records on their ambient span.
struct TraceIndex {
  std::map<std::string, NameStats> by_name;
  std::map<uint64_t, std::string> span_names;
};

TraceIndex LoadTrace(const Bundle& bundle, bool required) {
  TraceIndex index;
  const Json* events = bundle.Section("traceEvents", required);
  if (events == nullptr) return index;
  if (!events->is_array()) bundle.Malformed("traceEvents");
  for (const Json& event : events->as_array()) {
    std::string name = event.GetString("name", "<unnamed>");
    NameStats& stats = index.by_name[name];
    ++stats.count;
    stats.latency_ms.Add(event.GetNumber("dur", 0) / 1000.0);
    if (const Json* args = event.Find("args")) {
      stats.bytes += static_cast<uint64_t>(args->GetInt("bytes", 0));
      if (args->GetBool("dropped", false)) ++stats.dropped;
      if (const Json* wall = args->Find("wall_us")) {
        stats.wall_us.Add(wall->as_number());
      }
      int64_t span = args->GetInt("span", 0);
      if (span > 0) index.span_names[static_cast<uint64_t>(span)] = name;
    }
  }
  return index;
}

/// The decision records; none when the section is absent.
std::vector<DecisionRecord> LoadAudit(const Bundle& bundle, bool required) {
  const Json* section = bundle.Section("auditRecords", required);
  if (section == nullptr) return {};
  if (!section->is_array()) bundle.Malformed("auditRecords");
  return fuxi::obs::AuditRecordsFromJson(bundle.doc);
}

// --- spans --------------------------------------------------------------

int Spans(const Bundle& bundle) {
  TraceIndex trace = LoadTrace(bundle, /*required=*/true);
  bool has_audit =
      bundle.Section("auditRecords", /*required=*/false) != nullptr;
  std::vector<DecisionRecord> records = LoadAudit(bundle, /*required=*/false);

  std::printf("%-48s %8s %7s %10s %9s %9s %9s\n", "span", "count", "drops",
              "bytes", "lat p50", "lat p95", "lat max");
  std::printf("%-48s %8s %7s %10s %9s %9s %9s\n", "(name)", "", "",
              "", "(ms)", "(ms)", "(ms)");
  uint64_t total = 0;
  for (const auto& [name, stats] : trace.by_name) {
    total += stats.count;
    std::printf("%-48.48s %8llu %7llu %10s %9.3f %9.3f %9.3f\n",
                name.c_str(), static_cast<unsigned long long>(stats.count),
                static_cast<unsigned long long>(stats.dropped),
                fuxi::FormatBytes(static_cast<double>(stats.bytes)).c_str(),
                stats.latency_ms.Percentile(50),
                stats.latency_ms.Percentile(95), stats.latency_ms.max());
  }
  std::printf("total: %llu spans across %zu distinct names\n",
              static_cast<unsigned long long>(total), trace.by_name.size());

  bool header = false;
  for (const auto& [name, stats] : trace.by_name) {
    if (stats.wall_us.count() == 0) continue;
    if (!header) {
      std::printf("\n%-48s %8s %9s %9s %9s\n", "wall-clock span", "count",
                  "mean(us)", "p95(us)", "max(us)");
      header = true;
    }
    std::printf("%-48.48s %8llu %9.1f %9.1f %9.1f\n", name.c_str(),
                static_cast<unsigned long long>(stats.wall_us.count()),
                stats.wall_us.mean(), stats.wall_us.Percentile(95),
                stats.wall_us.max());
  }
  if (!has_audit) return 0;

  // Join on span id: which traced operations caused which decisions.
  std::map<std::string, std::map<std::string, uint64_t>> joined;
  uint64_t unjoined = 0;
  for (const DecisionRecord& record : records) {
    auto it = trace.span_names.find(record.trace_span);
    if (record.trace_span == 0 || it == trace.span_names.end()) {
      ++unjoined;
      continue;
    }
    ++joined[it->second][std::string(
        fuxi::obs::DecisionKindName(record.kind))];
  }
  std::printf("\n%-48s %-14s %8s\n", "ambient span", "decision", "count");
  for (const auto& [span, kinds] : joined) {
    for (const auto& [kind, count] : kinds) {
      std::printf("%-48.48s %-14s %8llu\n", span.c_str(), kind.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  std::printf(
      "joined %zu audit records against %zu spans (%llu records with "
      "no matching span in this trace)\n",
      records.size(), trace.span_names.size(),
      static_cast<unsigned long long>(unjoined));
  return 0;
}

// --- wire ---------------------------------------------------------------

/// Per-message-type wire volume: joins the net.msgs.<type> and
/// net.bytes.<type> counters the network keeps from exact encoded frame
/// sizes, plus the sweep.* rows of sweep::ExportStats.
int Wire(const Bundle& bundle) {
  const Json* metrics = bundle.Section("metrics", /*required=*/true);
  if (!metrics->is_string()) bundle.Malformed("metrics");
  struct TypeVolume {
    uint64_t msgs = 0;
    uint64_t bytes = 0;
  };
  std::map<std::string, TypeVolume> by_type;
  uint64_t total_sent = 0;
  uint64_t total_bytes = 0;
  uint64_t decode_drops = 0;
  // Counter and gauge rows both carry their reading in the value column
  // (the count column is only filled for histograms).
  std::map<std::string, double> sweep_stats;
  std::istringstream in(metrics->as_string());
  std::string line;
  while (std::getline(in, line)) {
    // MetricsToCsv rows: kind,name,count,value,mean,p50,...,realtime
    size_t c1 = line.find(',');
    if (c1 == std::string::npos) continue;
    bool is_counter = line.compare(0, c1, "counter") == 0;
    bool is_gauge = line.compare(0, c1, "gauge") == 0;
    if (!is_counter && !is_gauge) continue;
    size_t c2 = line.find(',', c1 + 1);
    size_t c3 = line.find(',', c2 + 1);
    if (c2 == std::string::npos || c3 == std::string::npos) continue;
    std::string name = line.substr(c1 + 1, c2 - c1 - 1);
    if (name.rfind("sweep.", 0) == 0) {
      sweep_stats[name] = std::strtod(line.c_str() + c3 + 1, nullptr);
      continue;
    }
    if (!is_counter) continue;
    uint64_t value = std::strtoull(line.c_str() + c3 + 1, nullptr, 10);
    if (name.rfind("net.msgs.", 0) == 0) {
      by_type[name.substr(9)].msgs = value;
    } else if (name.rfind("net.bytes.", 0) == 0) {
      by_type[name.substr(10)].bytes = value;
    } else if (name == "net.messages_sent") {
      total_sent = value;
    } else if (name == "net.bytes_sent") {
      total_bytes = value;
    } else if (name == "net.decode_drops") {
      decode_drops = value;
    }
  }
  if (by_type.empty() && sweep_stats.empty()) {
    Fail(1,
         "%s: metrics has no net.msgs.*/net.bytes.*/sweep.* counters (a "
         "run that sent no messages)",
         bundle.path.c_str());
  }
  if (!by_type.empty()) {
    std::printf("%-32s %10s %12s %10s\n", "message type", "msgs", "bytes",
                "avg B/msg");
    for (const auto& [type, volume] : by_type) {
      std::printf("%-32.32s %10llu %12llu %10.1f\n", type.c_str(),
                  static_cast<unsigned long long>(volume.msgs),
                  static_cast<unsigned long long>(volume.bytes),
                  volume.msgs == 0
                      ? 0.0
                      : static_cast<double>(volume.bytes) /
                            static_cast<double>(volume.msgs));
    }
    std::printf(
        "total: %llu messages, %llu bytes (exact encoded frame sizes); "
        "%llu decode drops\n",
        static_cast<unsigned long long>(total_sent),
        static_cast<unsigned long long>(total_bytes),
        static_cast<unsigned long long>(decode_drops));
  }
  if (!sweep_stats.empty()) {
    if (!by_type.empty()) std::printf("\n");
    std::printf("%-32s %12s\n", "sweep stat", "value");
    for (const auto& [name, value] : sweep_stats) {
      std::printf("%-32.32s %12.3f\n", name.c_str(), value);
    }
  }
  return 0;
}

// --- explain ------------------------------------------------------------

void PrintCandidate(const CandidateOutcome& c, bool demand_fixed) {
  if (demand_fixed) {
    std::printf("    %-8s m%-6lld", fuxi::obs::TierName(c.tier).data(),
                static_cast<long long>(c.machine));
  } else {
    std::printf("    %-8s app%lld/s%u", fuxi::obs::TierName(c.tier).data(),
                static_cast<long long>(c.app), c.slot);
  }
  if (c.granted > 0) {
    std::printf("  granted=%lld rem=%lld\n",
                static_cast<long long>(c.granted),
                static_cast<long long>(c.remaining));
  } else if (c.reason == RejectReason::kNone) {
    // A planner booking: units promised on this machine in the future,
    // carried in `remaining` so grant extraction does not count them.
    std::printf("  reserved=%lld\n", static_cast<long long>(c.remaining));
  } else {
    std::printf("  rejected: %s (rem=%lld)\n",
                fuxi::obs::RejectReasonName(c.reason).data(),
                static_cast<long long>(c.remaining));
  }
}

void PrintRecord(const DecisionRecord& r,
                 const std::map<uint64_t, std::string>& span_names) {
  std::printf("#%llu t=%.3f %s", static_cast<unsigned long long>(r.id),
              r.time, fuxi::obs::DecisionKindName(r.kind).data());
  if (r.app >= 0) {
    std::printf(" app%lld/s%u", static_cast<long long>(r.app), r.slot);
  }
  if (r.machine >= 0) std::printf(" m%lld", static_cast<long long>(r.machine));
  if (r.units != 0) std::printf(" units=%lld", static_cast<long long>(r.units));
  if (r.remaining_before != 0 || r.remaining_after != 0) {
    std::printf(" remaining %lld->%lld",
                static_cast<long long>(r.remaining_before),
                static_cast<long long>(r.remaining_after));
  }
  if (r.reason != RejectReason::kNone) {
    std::printf(" [%s]", fuxi::obs::RejectReasonName(r.reason).data());
  }
  if (!r.note.empty()) std::printf(" (%s)", r.note.c_str());
  if (r.trace_span != 0) {
    auto it = span_names.find(r.trace_span);
    if (it != span_names.end()) {
      std::printf(" span=%llu:%s",
                  static_cast<unsigned long long>(r.trace_span),
                  it->second.c_str());
    } else {
      std::printf(" span=%llu",
                  static_cast<unsigned long long>(r.trace_span));
    }
  }
  std::printf("\n");
  bool demand_fixed = r.kind != DecisionKind::kPass;
  for (const CandidateOutcome& c : r.candidates) {
    PrintCandidate(c, demand_fixed);
  }
  if (r.candidates_dropped > 0) {
    std::printf("    ... %u more candidates dropped at the record cap\n",
                r.candidates_dropped);
  }
}

void PrintSummary(const std::vector<DecisionRecord>& records) {
  std::map<std::string, uint64_t> by_kind;
  std::map<std::string, uint64_t> rejections;
  uint64_t granted_units = 0;
  uint64_t revoked_units = 0;
  for (const DecisionRecord& r : records) {
    ++by_kind[std::string(fuxi::obs::DecisionKindName(r.kind))];
    if (r.kind == DecisionKind::kRevoke) {
      revoked_units += static_cast<uint64_t>(r.units);
    }
    if (r.reason != RejectReason::kNone) {
      ++rejections[std::string(fuxi::obs::RejectReasonName(r.reason))];
    }
    for (const CandidateOutcome& c : r.candidates) {
      if (c.granted > 0) {
        granted_units += static_cast<uint64_t>(c.granted);
      } else if (c.reason != RejectReason::kNone) {
        ++rejections[std::string(fuxi::obs::RejectReasonName(c.reason))];
      }
    }
  }
  std::printf("%zu decision records\n", records.size());
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-14s %llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("granted units: %llu, revoked units: %llu\n",
              static_cast<unsigned long long>(granted_units),
              static_cast<unsigned long long>(revoked_units));
  if (!rejections.empty()) {
    std::printf("rejection reasons:\n");
    for (const auto& [reason, count] : rejections) {
      std::printf("  %-20s %llu\n", reason.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  std::vector<fuxi::obs::UnplacedDemand> unplaced =
      fuxi::obs::UnplacedAtEnd(records);
  if (!unplaced.empty()) {
    std::printf("unplaced at end of dump: %zu demands (try --unplaced)\n",
                unplaced.size());
  }
}

void PrintUnplaced(const std::vector<DecisionRecord>& records) {
  std::vector<fuxi::obs::UnplacedDemand> unplaced =
      fuxi::obs::UnplacedAtEnd(records);
  if (unplaced.empty()) {
    std::printf("every demand mentioned in the dump was satisfied\n");
    return;
  }
  for (const fuxi::obs::UnplacedDemand& u : unplaced) {
    std::printf("app%lld/s%u: %lld units outstanding\n",
                static_cast<long long>(u.app), u.slot,
                static_cast<long long>(u.remaining));
    std::vector<CandidateOutcome> chain =
        fuxi::obs::RejectionChain(records, u.app, u.slot);
    if (chain.empty()) {
      std::printf("    (no rejection recorded — ring may have "
                  "overwritten the history)\n");
      continue;
    }
    // The full chain can be long; the tail is what explains the current
    // state, so print the last few links.
    size_t start = chain.size() > 8 ? chain.size() - 8 : 0;
    if (start > 0) {
      std::printf("    ... %zu earlier rejections elided ...\n", start);
    }
    for (size_t i = start; i < chain.size(); ++i) {
      PrintCandidate(chain[i], true);
    }
  }
}

/// Tenant path carried by a hierarchical quota rejection chain
/// ("tenant=<path> | <hop> | ..."); empty for any other note.
std::string ChainTenant(const std::string& note) {
  if (note.rfind("tenant=", 0) != 0) return "";
  size_t end = note.find(" | ");
  return note.substr(7, end == std::string::npos ? std::string::npos
                                                 : end - 7);
}

/// True when `tenant` is `filter` or lies in its subtree. An empty
/// filter matches every tenant.
bool UnderTenant(const std::string& tenant, const std::string& filter) {
  if (filter.empty()) return true;
  if (tenant == filter) return true;
  std::string prefix = filter + "/";
  return tenant.compare(0, prefix.size(), prefix) == 0;
}

/// Renders every kQuotaHeadroom rejection chain the scheduler attached
/// for tenants under `filter`: one line per tree hop, walking
/// leafward -> rootward, with the first saturated ancestor marked.
void PrintTenantChains(const std::vector<DecisionRecord>& records,
                       const std::string& filter) {
  size_t shown = 0;
  for (const DecisionRecord& r : records) {
    std::string tenant = ChainTenant(r.note);
    if (tenant.empty() || !UnderTenant(tenant, filter)) continue;
    ++shown;
    std::printf("#%llu t=%.3f %s app%lld/s%u tenant=%s\n",
                static_cast<unsigned long long>(r.id), r.time,
                fuxi::obs::DecisionKindName(r.kind).data(),
                static_cast<long long>(r.app), r.slot, tenant.c_str());
    // The chain is " | "-separated: the tenant header, then one entry
    // per bounded ancestor from the leaf up.
    size_t pos = r.note.find(" | ");
    while (pos != std::string::npos) {
      size_t start = pos + 3;
      size_t next = r.note.find(" | ", start);
      std::string hop = r.note.substr(
          start, next == std::string::npos ? std::string::npos
                                           : next - start);
      std::printf("    %s\n", hop.c_str());
      pos = next;
    }
  }
  if (shown == 0) {
    if (filter.empty()) {
      std::printf("no hierarchical quota rejection chains in the dump\n");
    } else {
      std::printf("no quota rejection chains for tenant %s\n",
                  filter.c_str());
    }
  } else {
    std::printf("%zu quota-clamped decisions\n", shown);
  }
}

/// Units a kReserve record books (provisionally) or commits on `machine`.
struct ReserveTouch {
  int64_t reserved = 0;
  int64_t committed = 0;
};

ReserveTouch TouchOn(const DecisionRecord& r, int64_t machine) {
  ReserveTouch touch;
  for (const CandidateOutcome& c : r.candidates) {
    if (c.machine != machine) continue;
    if (c.granted > 0) {
      touch.committed += c.granted;
    } else if (c.reason == RejectReason::kNone) {
      touch.reserved += c.remaining;
    }
  }
  return touch;
}

/// The planner's view of one machine's future: every reservation event
/// that touched it, in order, plus whatever is still booked at the end
/// of the dump. Bookings name their window in the note
/// ("reserve=<id> start=<s> end=<e>"); a later kReserve record for the
/// same demand supersedes the booking (converted, aborted, expired, or
/// re-booked elsewhere).
void PrintMachineReservations(const std::vector<DecisionRecord>& records,
                              int64_t machine) {
  struct Open {
    double time;
    int64_t units;
    std::string note;
  };
  std::map<std::pair<int64_t, uint32_t>, Open> open;
  size_t events = 0;
  std::printf("== planner reservation timeline for m%lld ==\n",
              static_cast<long long>(machine));
  for (const DecisionRecord& r : records) {
    if (r.kind != DecisionKind::kReserve) {
      // A backfill-head fence is released without an audit record when
      // its demand starts via the instantaneous pass — retire the
      // booking when we see that demand granted anywhere.
      if (r.kind == DecisionKind::kPlace) {
        for (const CandidateOutcome& c : r.candidates) {
          if (c.granted > 0) open.erase({r.app, r.slot});
        }
      } else if (r.kind == DecisionKind::kPass) {
        for (const CandidateOutcome& c : r.candidates) {
          if (c.granted > 0) open.erase({c.app, c.slot});
        }
      }
      continue;
    }
    ReserveTouch touch = TouchOn(r, machine);
    std::pair<int64_t, uint32_t> key{r.app, r.slot};
    if (touch.reserved > 0) {
      open[key] = Open{r.time, touch.reserved, r.note};
    } else {
      // Any later planner decision about this demand retires its
      // booking here: it converted, aborted, expired, or moved.
      open.erase(key);
    }
    if (touch.reserved == 0 && touch.committed == 0 &&
        r.machine != machine) {
      continue;
    }
    ++events;
    std::printf("t=%.3f app%lld/s%u", r.time,
                static_cast<long long>(r.app), r.slot);
    if (touch.reserved > 0) {
      std::printf(" reserved %lld units",
                  static_cast<long long>(touch.reserved));
    }
    if (touch.committed > 0) {
      std::printf(" committed %lld units",
                  static_cast<long long>(touch.committed));
    }
    if (r.reason != RejectReason::kNone) {
      std::printf(" [%s]", fuxi::obs::RejectReasonName(r.reason).data());
    }
    if (!r.note.empty()) std::printf(" (%s)", r.note.c_str());
    std::printf("\n");
  }
  if (events == 0) {
    std::printf("no planner reservations touched this machine\n");
    return;
  }
  if (!open.empty()) {
    std::printf("still booked at end of dump:\n");
    for (const auto& [key, o] : open) {
      std::printf("  app%lld/s%u: %lld units, booked at t=%.3f (%s)\n",
                  static_cast<long long>(key.first), key.second,
                  static_cast<long long>(o.units), o.time, o.note.c_str());
    }
  }
}

int Explain(const std::string& path, const std::vector<std::string>& args) {
  enum class Mode { kSummary, kDemand, kMachine, kUnplaced, kTimeline,
                    kGantt, kTenant };
  constexpr uint64_t kMaxId = std::numeric_limits<int64_t>::max();
  Mode mode = Mode::kSummary;
  int64_t app = -1, machine = -1, timeline_machine = -1;
  int64_t slot = -1;  // -1: every slot of the app seen in the dump
  std::string tenant_filter;
  // An optional operand is the next argument unless that is a flag.
  auto has_operand = [&args](size_t i) {
    return i + 1 < args.size() && args[i + 1][0] != '-';
  };
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--demand" && i + 1 < args.size()) {
      mode = Mode::kDemand;
      app = ParseId(args[++i], kMaxId);
      slot = has_operand(i)
                 ? ParseId(args[++i], std::numeric_limits<uint32_t>::max())
                 : -1;
    } else if (args[i] == "--machine" && i + 1 < args.size()) {
      mode = Mode::kMachine;
      machine = ParseId(args[++i], kMaxId);
    } else if (args[i] == "--unplaced") {
      mode = Mode::kUnplaced;
    } else if (args[i] == "--timeline") {
      mode = Mode::kTimeline;
      if (has_operand(i)) timeline_machine = ParseId(args[++i], kMaxId);
    } else if (args[i] == "--gantt") {
      mode = Mode::kGantt;
    } else if (args[i] == "--tenant") {
      mode = Mode::kTenant;
      if (has_operand(i)) tenant_filter = args[++i];
    } else {
      Usage();
    }
  }

  Bundle bundle = LoadBundle(path);
  std::vector<DecisionRecord> records = LoadAudit(bundle, /*required=*/true);
  TraceIndex trace = LoadTrace(bundle, /*required=*/false);
  switch (mode) {
    case Mode::kSummary:
      PrintSummary(records);
      break;
    case Mode::kDemand: {
      std::vector<uint32_t> slots;
      if (slot < 0) {
        std::map<uint32_t, bool> seen;
        for (const DecisionRecord& r : records) {
          if (r.app == app) seen[r.slot] = true;
          for (const CandidateOutcome& c : r.candidates) {
            if (c.app == app) seen[c.slot] = true;
          }
        }
        for (const auto& [s, unused] : seen) slots.push_back(s);
      } else {
        slots.push_back(static_cast<uint32_t>(slot));
      }
      for (uint32_t s : slots) {
        std::printf("== demand app%lld/s%u ==\n",
                    static_cast<long long>(app), s);
        for (const DecisionRecord* r :
             fuxi::obs::ExplainDemand(records, app, s)) {
          PrintRecord(*r, trace.span_names);
        }
      }
      break;
    }
    case Mode::kMachine:
      for (const DecisionRecord* r :
           fuxi::obs::ExplainMachine(records, machine)) {
        PrintRecord(*r, trace.span_names);
      }
      break;
    case Mode::kUnplaced:
      PrintUnplaced(records);
      break;
    case Mode::kTimeline:
      if (timeline_machine >= 0) {
        PrintMachineReservations(records, timeline_machine);
        break;
      }
      std::fputs(fuxi::obs::RenderTimeline(
                     fuxi::obs::AppUtilization(
                         fuxi::obs::ExtractGrantEvents(records)),
                     "per-app utilization (units held)")
                     .c_str(),
                 stdout);
      break;
    case Mode::kGantt:
      std::fputs(fuxi::obs::RenderTimeline(
                     fuxi::obs::MachineOccupancy(
                         fuxi::obs::ExtractGrantEvents(records)),
                     "per-machine occupancy (units held)")
                     .c_str(),
                 stdout);
      break;
    case Mode::kTenant:
      PrintTenantChains(records, tenant_filter);
      break;
  }
  return 0;
}

// --- dash ---------------------------------------------------------------

/// Eight-level ASCII ramp. Unicode block elements would be prettier but
/// plain ASCII survives every terminal and CI log viewer.
const char kRamp[] = " .:-=+*#@";

std::string Sparkline(const std::vector<double>& values, size_t width) {
  if (values.empty()) return "";
  double lo = *std::min_element(values.begin(), values.end());
  double hi = *std::max_element(values.begin(), values.end());
  // Downsample to `width` buckets, each showing its bucket max — spikes
  // must survive compression, troughs may not.
  size_t n = values.size();
  size_t cols = std::min(width, n);
  std::string out;
  out.reserve(cols);
  for (size_t c = 0; c < cols; ++c) {
    size_t begin = c * n / cols;
    size_t end = std::max(begin + 1, (c + 1) * n / cols);
    double bucket = *std::max_element(values.begin() + begin,
                                      values.begin() + end);
    size_t level = 0;
    if (hi > lo) {
      level = static_cast<size_t>((bucket - lo) / (hi - lo) * 8.0 + 0.5);
      level = std::min<size_t>(level, 8);
    } else if (hi != 0) {
      level = 4;  // flat nonzero line at mid-ramp
    }
    out.push_back(kRamp[level]);
  }
  return out;
}

/// Per series: kind, sample count, min/max/latest over the retained
/// window and a sparkline scaled to the series' own [min, max]. Series
/// tagged realtime (wall-clock measurements) are marked with '~' — they
/// vary run to run and are excluded from determinism comparisons.
/// Health events render inline so a degradation signal is never
/// off-screen.
void PrintDashboard(const TelemetryDump& dump) {
  std::printf("fuxi telemetry: %lld samples @ %.3gs interval, %zu series\n",
              static_cast<long long>(dump.samples), dump.interval,
              dump.series.size());
  std::printf("%-44s %-10s %6s %12s %12s %12s  %s\n", "series", "kind",
              "n", "min", "max", "latest", "sparkline");
  for (const TelemetryDump::Series& s : dump.series) {
    double lo = 0, hi = 0, latest = 0;
    if (!s.values.empty()) {
      lo = *std::min_element(s.values.begin(), s.values.end());
      hi = *std::max_element(s.values.begin(), s.values.end());
      latest = s.values.back();
    }
    std::string name = s.name;
    if (s.realtime) name += " ~";
    std::printf("%-44.44s %-10s %6zu %12.6g %12.6g %12.6g  |%s|\n",
                name.c_str(), s.kind.c_str(), s.values.size(), lo, hi,
                latest, Sparkline(s.values, 40).c_str());
  }
  if (!dump.events.empty() || dump.events_dropped > 0) {
    std::printf("\nwatchdog: %zu health events (%llu dropped)\n",
                dump.events.size(),
                static_cast<unsigned long long>(dump.events_dropped));
    for (const fuxi::obs::HealthEvent& ev : dump.events) {
      std::printf("  t=%-9.3f [%s] %s=%.6g threshold=%.6g%s%s\n", ev.time,
                  ev.rule.c_str(), ev.series.c_str(), ev.value, ev.threshold,
                  ev.detail.empty() ? "" : " -- ", ev.detail.c_str());
    }
  }
}

void PrintList(const TelemetryDump& dump) {
  for (const TelemetryDump::Series& s : dump.series) {
    std::printf("%-44s %-10s n=%-6zu total=%-8llu%s\n", s.name.c_str(),
                s.kind.c_str(), s.values.size(),
                static_cast<unsigned long long>(s.total),
                s.realtime ? " realtime" : "");
  }
}

int PrintSeries(const TelemetryDump& dump, const std::string& name) {
  const TelemetryDump::Series* s = dump.Find(name);
  if (s == nullptr) Fail(1, "no series named %s (try --list)", name.c_str());
  std::printf("%s (%s%s): %zu retained of %llu sampled\n", s->name.c_str(),
              s->kind.c_str(), s->realtime ? ", realtime" : "",
              s->values.size(), static_cast<unsigned long long>(s->total));
  std::printf("%8s %12s %16s\n", "tick", "t(s)", "value");
  for (size_t i = 0; i < s->values.size(); ++i) {
    int64_t tick = s->first_tick + static_cast<int64_t>(i);
    std::printf("%8lld %12.3f %16.6f\n", static_cast<long long>(tick),
                static_cast<double>(tick) * dump.interval, s->values[i]);
  }
  return 0;
}

void PrintEvents(const TelemetryDump& dump) {
  std::printf("time,rule,series,value,threshold,detail\n");
  for (const fuxi::obs::HealthEvent& ev : dump.events) {
    std::printf("%.6f,%s,%s,%.6g,%.6g,%s\n", ev.time, ev.rule.c_str(),
                ev.series.c_str(), ev.value, ev.threshold,
                ev.detail.c_str());
  }
  if (dump.events_dropped > 0) {
    std::fprintf(stderr, "fuxi: %llu further events dropped at the "
                 "watchdog's ring cap\n",
                 static_cast<unsigned long long>(dump.events_dropped));
  }
}

/// Long-form CSV: one row per (series, tick) — trivially pivotable.
void PrintCsv(const TelemetryDump& dump) {
  std::printf("series,kind,realtime,tick,time,value\n");
  for (const TelemetryDump::Series& s : dump.series) {
    for (size_t i = 0; i < s.values.size(); ++i) {
      int64_t tick = s.first_tick + static_cast<int64_t>(i);
      std::printf("%s,%s,%d,%lld,%.6f,%.6f\n", s.name.c_str(),
                  s.kind.c_str(), s.realtime ? 1 : 0,
                  static_cast<long long>(tick),
                  static_cast<double>(tick) * dump.interval, s.values[i]);
    }
  }
}

/// Decoded JSON: the dump with every delta chain expanded to absolute
/// values — what a plotting notebook wants to ingest directly.
void PrintJson(const TelemetryDump& dump) {
  Json doc = Json::MakeObject();
  doc["fuxi_telemetry_decoded"] = Json(int64_t{1});
  doc["interval"] = Json(dump.interval);
  doc["samples"] = Json(dump.samples);
  Json series = Json::MakeArray();
  for (const TelemetryDump::Series& s : dump.series) {
    Json entry = Json::MakeObject();
    entry["name"] = Json(s.name);
    entry["kind"] = Json(s.kind);
    if (s.realtime) entry["realtime"] = Json(true);
    entry["first_tick"] = Json(s.first_tick);
    entry["total"] = Json(static_cast<int64_t>(s.total));
    Json values = Json::MakeArray();
    for (double v : s.values) values.Append(Json(v));
    entry["values"] = std::move(values);
    series.Append(std::move(entry));
  }
  doc["series"] = std::move(series);
  Json events = Json::MakeArray();
  for (const fuxi::obs::HealthEvent& ev : dump.events) {
    Json entry = Json::MakeObject();
    entry["t"] = Json(ev.time);
    entry["rule"] = Json(ev.rule);
    entry["series"] = Json(ev.series);
    entry["value"] = Json(ev.value);
    entry["threshold"] = Json(ev.threshold);
    if (!ev.detail.empty()) entry["detail"] = Json(ev.detail);
    events.Append(std::move(entry));
  }
  doc["events"] = std::move(events);
  std::printf("%s\n", doc.Dump().c_str());
}

int Dash(const std::string& path, const std::vector<std::string>& args) {
  std::string mode;  // empty: the dashboard
  std::string series_name;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--list" || args[i] == "--events" || args[i] == "--csv" ||
        args[i] == "--json") {
      mode = args[i];
    } else if (args[i] == "--series" && i + 1 < args.size()) {
      mode = args[i];
      series_name = args[++i];
    } else {
      Usage();
    }
  }

  Bundle bundle = LoadBundle(path);
  const Json* section = bundle.Section("telemetry", /*required=*/true);
  if (section->Find("fuxi_telemetry") == nullptr) {
    bundle.Malformed("telemetry");
  }
  TelemetryDump dump = fuxi::obs::TelemetryDumpFromJson(*section);
  if (mode == "--list") {
    PrintList(dump);
  } else if (mode == "--series") {
    return PrintSeries(dump, series_name);
  } else if (mode == "--events") {
    PrintEvents(dump);
  } else if (mode == "--csv") {
    PrintCsv(dump);
  } else if (mode == "--json") {
    PrintJson(dump);
  } else {
    PrintDashboard(dump);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) Usage();
  std::string command = argv[1];
  std::string path = argv[2];
  std::vector<std::string> args(argv + 3, argv + argc);
  if (command == "explain") return Explain(path, args);
  if (command == "dash") return Dash(path, args);
  if (!args.empty()) Usage();
  if (command == "spans") return Spans(LoadBundle(path));
  if (command == "wire") return Wire(LoadBundle(path));
  Usage();
}
