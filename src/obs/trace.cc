#include "obs/trace.h"

#include <utility>

#include "common/strings.h"

namespace fuxi::obs {

TraceRecorder::TraceRecorder(sim::Simulator* sim, size_t ring_capacity)
    : sim_(sim), flight_(ring_capacity) {}

uint64_t TraceRecorder::BeginSpan(const char* category, const char* name) {
  SpanRecord span;
  span.id = next_id_++;
  span.parent = current_;
  span.begin = sim_->Now();
  span.category = category;
  span.name = name;
  open_.emplace(span.id, span);
  return span.id;
}

uint64_t TraceRecorder::BeginMessageSpan(
    const std::type_info& payload_type, int64_t from, int64_t to,
    uint64_t bytes) {
  SpanRecord span;
  span.id = next_id_++;
  span.parent = current_;
  span.begin = sim_->Now();
  span.category = "rpc";
  span.name = InternTypeName(payload_type);
  span.from = from;
  span.to = to;
  span.bytes = bytes;
  open_.emplace(span.id, span);
  return span.id;
}

void TraceRecorder::EndSpan(uint64_t id, double wall_us) {
  Finish(id, wall_us, /*dropped=*/false);
}

void TraceRecorder::DropSpan(uint64_t id) {
  Finish(id, /*wall_us=*/-1, /*dropped=*/true);
}

void TraceRecorder::Finish(uint64_t id, double wall_us, bool dropped) {
  if (id == 0) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;  // double-end is a no-op
  SpanRecord span = it->second;
  open_.erase(it);
  span.end = sim_->Now();
  span.wall_us = wall_us;
  span.dropped = dropped;
  flight_.Push(span);
}

const char* TraceRecorder::InternTypeName(const std::type_info& type) {
  auto it = names_.find(std::type_index(type));
  if (it == names_.end()) {
    it = names_
             .emplace(std::type_index(type),
                      std::make_unique<std::string>(Demangle(type.name())))
             .first;
  }
  return it->second->c_str();
}

void TraceRecorder::Clear() {
  open_.clear();
  flight_.Clear();
  next_id_ = 1;
  current_ = 0;
}

}  // namespace fuxi::obs
