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
    uint32_t type_slot, const std::type_info& payload_type, int64_t from,
    int64_t to, uint64_t bytes) {
  SpanRecord span;
  span.id = next_id_++;
  span.parent = current_;
  span.begin = sim_->Now();
  span.category = "rpc";
  span.name = MessageName(type_slot, payload_type);
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

const char* TraceRecorder::MessageName(uint32_t type_slot,
                                       const std::type_info& type) {
  if (type_slot >= names_.size()) names_.resize(type_slot + 1);
  std::unique_ptr<std::string>& name = names_[type_slot];
  if (name == nullptr) {
    name = std::make_unique<std::string>(Demangle(type.name()));
  }
  return name->c_str();
}

}  // namespace fuxi::obs
