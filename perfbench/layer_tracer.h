#ifndef FUXI_PERFBENCH_LAYER_TRACER_H_
#define FUXI_PERFBENCH_LAYER_TRACER_H_

// Per-layer wall-clock attribution of a SimCluster run, measured from
// outside the program: a post-event observer timestamps every simulator
// event and charges the interval since the previous one to the layer the
// event belongs to. The layer is read off the newest span the event left
// in the flight recorder:
//   * a delivered message span -> the receiving layer (master, agent, or
//     the application model for every other node);
//   * a dropped message span   -> net;
//   * a watchdog "health" span -> obs;
//   * no new span              -> sim (timers: heartbeat ticks, monitor
//     and rollup ticks, the closed loop's own job submissions).
// The master's existing "sched" spans carry the measured wall time of
// each ApplyFullState / ApplyRequest call and give the master split.
//
// The flight recorder only offers a full Snapshot(), so the traced
// cluster is built with a tiny ring (kTracedRingCapacity) to keep that
// read cheap; nothing in the simulation reads the ring.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "obs/flight_recorder.h"
#include "runtime/sim_cluster.h"

namespace fuxi::perfbench {

enum Layer { kSim, kMaster, kAgent, kApp, kNet, kObs, kLayerCount };

/// Enough for the spans one event completes (a request delivery ends
/// one "sched" span and one message span).
inline constexpr size_t kTracedRingCapacity = 8;

class LayerTracer {
 public:
  explicit LayerTracer(runtime::SimCluster* cluster) : cluster_(cluster) {
    for (int i = 0; i < cluster->master_count(); ++i) {
      master_nodes_.insert(cluster->master(i)->node().value());
    }
    for (const cluster::Machine& machine : cluster->topology().machines()) {
      agent_nodes_.insert(cluster->agent(machine.id)->node().value());
    }
    token_ = cluster->sim().AddPostEventObserver(
        [this](double) { OnEvent(); });
  }
  ~LayerTracer() { cluster_->sim().RemovePostEventObserver(token_); }

  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  /// Runs the cluster for `seconds` of virtual time; only events inside
  /// such calls are attributed, and the call's wall time is the window
  /// the attribution must cover.
  void RunFor(double seconds) {
    auto start = Clock::now();
    last_ = start;
    last_pushed_ = cluster_->obs().trace.flight().total_pushed();
    cluster_->RunFor(seconds);
    window_s_ +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }

  double window_s() const { return window_s_; }
  double self_s(int layer) const {
    return self_s_[static_cast<size_t>(layer)];
  }
  double attributed_s() const {
    double total = 0;
    for (double s : self_s_) total += s;
    return total;
  }
  /// Per-event wall times in microseconds, in event order.
  const std::vector<double>& event_us() const { return event_us_; }
  uint64_t full_state_calls() const { return full_state_calls_; }
  uint64_t incremental_calls() const { return incremental_calls_; }
  double full_state_s() const { return full_state_us_ / 1e6; }
  double incremental_s() const { return incremental_us_ / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;

  void OnEvent() {
    auto now = Clock::now();
    double dt = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    const obs::FlightRecorder& flight = cluster_->obs().trace.flight();
    int layer = kSim;
    if (flight.total_pushed() != last_pushed_) {
      size_t fresh = static_cast<size_t>(std::min<uint64_t>(
          flight.total_pushed() - last_pushed_, flight.size()));
      last_pushed_ = flight.total_pushed();
      std::vector<obs::SpanRecord> records = flight.Snapshot();
      for (size_t i = records.size() - fresh; i < records.size(); ++i) {
        NoteSchedSpan(records[i]);
      }
      layer = Classify(records.back());
    }
    self_s_[static_cast<size_t>(layer)] += dt;
    event_us_.push_back(dt * 1e6);
  }

  void NoteSchedSpan(const obs::SpanRecord& span) {
    if (std::strcmp(span.category, "sched") != 0 || span.wall_us < 0) return;
    if (std::strcmp(span.name, "ApplyFullState") == 0) {
      ++full_state_calls_;
      full_state_us_ += span.wall_us;
    } else {
      ++incremental_calls_;
      incremental_us_ += span.wall_us;
    }
  }

  int Classify(const obs::SpanRecord& span) const {
    if (span.dropped) return kNet;
    if (std::strcmp(span.category, "rpc") == 0) {
      if (master_nodes_.count(span.to) > 0) return kMaster;
      if (agent_nodes_.count(span.to) > 0) return kAgent;
      return kApp;
    }
    if (std::strcmp(span.category, "sched") == 0) return kMaster;
    if (std::strcmp(span.category, "health") == 0) return kObs;
    return kSim;
  }

  runtime::SimCluster* cluster_;
  std::unordered_set<int64_t> master_nodes_;
  std::unordered_set<int64_t> agent_nodes_;
  uint64_t token_ = 0;
  Clock::time_point last_;
  uint64_t last_pushed_ = 0;
  double window_s_ = 0;
  std::array<double, kLayerCount> self_s_{};
  std::vector<double> event_us_;
  uint64_t full_state_calls_ = 0;
  uint64_t incremental_calls_ = 0;
  double full_state_us_ = 0;
  double incremental_us_ = 0;
};

}  // namespace fuxi::perfbench

#endif  // FUXI_PERFBENCH_LAYER_TRACER_H_
