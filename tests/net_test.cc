#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/metrics_registry.h"

#include "wire/wire.h"

namespace fuxi::net {
namespace {

struct Ping {
  int value;
};
struct Pong {
  int value;
};
/// A string payload (net_test's stand-in for an opaque message).
struct TestText {
  std::string value;
};

// Test-local wire messages under the reserved test tags.
using TestPing = Ping;
using TestPong = Pong;
FUXI_WIRE_MESSAGE(TestPing, 1, m.value)
FUXI_WIRE_MESSAGE(TestPong, 1, m.value)
FUXI_WIRE_MESSAGE(TestText, 1, m.value)

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&sim_, Network::Config{}) {
    network_.Register(NodeId(1), &a_);
    network_.Register(NodeId(2), &b_);
  }

  sim::Simulator sim_;
  Network network_;
  Endpoint a_;
  Endpoint b_;
};

TEST_F(NetworkTest, DeliversTypedPayload) {
  int received = 0;
  b_.Handle<Ping>([&](const Envelope& env, const Ping& ping) {
    EXPECT_EQ(env.from, NodeId(1));
    received = ping.value;
  });
  network_.Send(NodeId(1), NodeId(2), Ping{41});
  sim_.RunToCompletion();
  EXPECT_EQ(received, 41);
  EXPECT_EQ(network_.stats().messages_delivered, 1u);
}

TEST_F(NetworkTest, DispatchesByPayloadType) {
  int pings = 0, pongs = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++pings; });
  b_.Handle<Pong>([&](const Envelope&, const Pong&) { ++pongs; });
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  network_.Send(NodeId(1), NodeId(2), Pong{2});
  sim_.RunToCompletion();
  EXPECT_EQ(pings, 1);
  EXPECT_EQ(pongs, 1);
}

TEST_F(NetworkTest, UnhandledTypeCounted) {
  network_.Send(NodeId(1), NodeId(2), TestText{"mystery"});
  sim_.RunToCompletion();
  EXPECT_EQ(b_.unhandled(), 1u);
}

TEST_F(NetworkTest, LatencyDelaysDelivery) {
  network_.mutable_config()->latency_mean = 0.5;
  network_.mutable_config()->latency_jitter = 0;
  double delivered_at = -1;
  b_.Handle<Ping>(
      [&](const Envelope&, const Ping&) { delivered_at = sim_.Now(); });
  network_.Send(NodeId(1), NodeId(2), Ping{0});
  sim_.RunToCompletion();
  EXPECT_DOUBLE_EQ(delivered_at, 0.5);
}

TEST_F(NetworkTest, PartitionDropsBothDirections) {
  int received = 0;
  a_.Handle<Ping>([&](const Envelope&, const Ping&) { ++received; });
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++received; });
  network_.Partition(NodeId(2));
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  network_.Send(NodeId(2), NodeId(1), Ping{2});
  sim_.RunToCompletion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network_.stats().messages_dropped, 2u);

  network_.Heal(NodeId(2));
  network_.Send(NodeId(1), NodeId(2), Ping{3});
  sim_.RunToCompletion();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, PartitionKillsInFlightMessages) {
  int received = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++received; });
  network_.mutable_config()->latency_mean = 1.0;
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  // Partition while the message is in flight.
  sim_.Schedule(0.5, [&] { network_.Partition(NodeId(2)); });
  sim_.RunToCompletion();
  EXPECT_EQ(received, 0);
}

TEST_F(NetworkTest, DropProbabilityLosesMessages) {
  network_.mutable_config()->drop_probability = 0.5;
  int received = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++received; });
  for (int i = 0; i < 1000; ++i) {
    network_.Send(NodeId(1), NodeId(2), Ping{i});
  }
  sim_.RunToCompletion();
  EXPECT_GT(received, 300);
  EXPECT_LT(received, 700);
  EXPECT_EQ(network_.stats().messages_dropped,
            1000u - static_cast<uint64_t>(received));
}

TEST_F(NetworkTest, DuplicationDeliversTwice) {
  network_.mutable_config()->duplicate_probability = 1.0;
  int received = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++received; });
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  sim_.RunToCompletion();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(network_.stats().messages_duplicated, 1u);
}

TEST_F(NetworkTest, JitterReordersMessages) {
  network_.mutable_config()->latency_mean = 0.01;
  network_.mutable_config()->latency_jitter = 0.009;
  std::vector<int> arrivals;
  b_.Handle<Ping>(
      [&](const Envelope&, const Ping& p) { arrivals.push_back(p.value); });
  for (int i = 0; i < 200; ++i) {
    network_.Send(NodeId(1), NodeId(2), Ping{i});
  }
  sim_.RunToCompletion();
  ASSERT_EQ(arrivals.size(), 200u);
  bool reordered = false;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] < arrivals[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered) << "jitter should cause at least one reordering";
}

TEST_F(NetworkTest, CutLinkDropsOnlyOneDirection) {
  int at_a = 0, at_b = 0;
  a_.Handle<Ping>([&](const Envelope&, const Ping&) { ++at_a; });
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++at_b; });
  network_.CutLink(NodeId(1), NodeId(2));
  EXPECT_TRUE(network_.IsLinkCut(NodeId(1), NodeId(2)));
  EXPECT_FALSE(network_.IsLinkCut(NodeId(2), NodeId(1)));
  network_.Send(NodeId(1), NodeId(2), Ping{1});  // cut direction: dropped
  network_.Send(NodeId(2), NodeId(1), Ping{2});  // reverse still flows
  sim_.RunToCompletion();
  EXPECT_EQ(at_b, 0);
  EXPECT_EQ(at_a, 1);

  network_.HealLink(NodeId(1), NodeId(2));
  EXPECT_EQ(network_.cut_link_count(), 0u);
  network_.Send(NodeId(1), NodeId(2), Ping{3});
  sim_.RunToCompletion();
  EXPECT_EQ(at_b, 1);
}

TEST_F(NetworkTest, CutLinkKillsInFlightMessagesInThatDirectionOnly) {
  int at_a = 0, at_b = 0;
  a_.Handle<Ping>([&](const Envelope&, const Ping&) { ++at_a; });
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++at_b; });
  network_.mutable_config()->latency_mean = 1.0;
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  network_.Send(NodeId(2), NodeId(1), Ping{2});
  sim_.Schedule(0.5, [&] { network_.CutLink(NodeId(1), NodeId(2)); });
  sim_.RunToCompletion();
  EXPECT_EQ(at_b, 0) << "in-flight message crossed a cut link";
  EXPECT_EQ(at_a, 1) << "reverse direction must be unaffected";
}

TEST_F(NetworkTest, PartitionIsSymmetricSpecialCaseOfCuts) {
  // Partition blocks both directions even with no per-link cuts, and
  // healing the partition cannot resurrect an independent link cut.
  network_.Partition(NodeId(2));
  network_.CutLink(NodeId(1), NodeId(2));
  network_.Heal(NodeId(2));
  int at_b = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++at_b; });
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  sim_.RunToCompletion();
  EXPECT_EQ(at_b, 0);
  network_.HealLink(NodeId(1), NodeId(2));
  network_.Send(NodeId(1), NodeId(2), Ping{2});
  sim_.RunToCompletion();
  EXPECT_EQ(at_b, 1);
}

TEST_F(NetworkTest, FlapAlternatesOutageAndRecovery) {
  network_.mutable_config()->latency_mean = 0.0;
  network_.mutable_config()->latency_jitter = 0.0;
  int at_b = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++at_b; });
  // Period 1s, dark for the first 0.4s of each cycle.
  FlapHandle flap = network_.Flap(NodeId(2), 1.0, 0.4);
  // Probe once per cycle inside the dark window and once in the light.
  int dark_hits = 0, light_hits = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim_.Schedule(cycle * 1.0 + 0.2, [&] {
      int before = at_b;
      network_.Send(NodeId(1), NodeId(2), Ping{0});
      sim_.Schedule(0.01, [&, before] { dark_hits += at_b - before; });
    });
    sim_.Schedule(cycle * 1.0 + 0.7, [&] {
      int before = at_b;
      network_.Send(NodeId(1), NodeId(2), Ping{0});
      sim_.Schedule(0.01, [&, before] { light_hits += at_b - before; });
    });
  }
  sim_.RunUntil(3.5);
  EXPECT_EQ(dark_hits, 0);
  EXPECT_EQ(light_hits, 3);

  // Cancel mid-outage (the 4th cycle goes dark at t=4.0): the pending
  // heal still fires, so a cancelled flap never leaves the node dark.
  sim_.RunUntil(4.1);
  EXPECT_TRUE(network_.IsPartitioned(NodeId(2)));
  flap.Cancel();
  sim_.RunUntil(5.0);
  EXPECT_FALSE(flap.active());
  EXPECT_FALSE(network_.IsPartitioned(NodeId(2)));
  int before = at_b;
  network_.Send(NodeId(1), NodeId(2), Ping{9});
  sim_.RunToCompletion();
  EXPECT_EQ(at_b, before + 1);
}

TEST_F(NetworkTest, MovedPayloadStillDuplicatesCorrectly) {
  // Send moves the payload into the final envelope; an injected
  // duplicate must still carry its own intact copy.
  network_.mutable_config()->duplicate_probability = 1.0;
  std::vector<std::string> received;
  b_.Handle<TestText>([&](const Envelope&, const TestText& text) {
    received.push_back(text.value);
  });
  network_.Send(NodeId(1), NodeId(2), TestText{"payload-content"});
  sim_.RunToCompletion();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "payload-content");
  EXPECT_EQ(received[1], "payload-content");
}

TEST_F(NetworkTest, SendToUnregisteredNodeIsDropped) {
  network_.Send(NodeId(1), NodeId(99), Ping{1});
  sim_.RunToCompletion();
  EXPECT_EQ(network_.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, BytesAccountingIsMeasuredNotEstimated) {
  // bytes_sent must equal the exact encoded frame sizes — no caller
  // hints anywhere. The envelope carries the same measured number.
  size_t delivered_bytes = 0;
  b_.Handle<Ping>([&](const Envelope& env, const Ping&) {
    delivered_bytes += env.wire_bytes;
  });
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  network_.Send(NodeId(1), NodeId(2), Ping{1000000});
  sim_.RunToCompletion();
  size_t expected = wire::FramedSize(Ping{1}) + wire::FramedSize(Ping{1000000});
  EXPECT_EQ(network_.stats().bytes_sent, expected);
  EXPECT_EQ(delivered_bytes, expected);
  // Varint encoding: the big value really costs more bytes.
  EXPECT_GT(wire::FramedSize(Ping{1000000}), wire::FramedSize(Ping{1}));
}

TEST_F(NetworkTest, SerializeOnSendIsAnIdentityForEncodablePayloads) {
  network_.mutable_config()->serialize_on_send = true;
  int received = 0;
  b_.Handle<Ping>([&](const Envelope& env, const Ping& ping) {
    received = ping.value;
    EXPECT_EQ(env.wire_bytes, wire::FramedSize(Ping{ping.value}));
  });
  network_.Send(NodeId(1), NodeId(2), Ping{-12345});
  sim_.RunToCompletion();
  EXPECT_EQ(received, -12345);
  EXPECT_EQ(network_.stats().messages_delivered, 1u);
  EXPECT_EQ(network_.stats().decode_drops, 0u);
}

TEST_F(NetworkTest, CorruptedFramesSurfaceAsCountedDropsNeverCrashes) {
  network_.mutable_config()->serialize_on_send = true;
  network_.mutable_config()->corrupt_probability = 1.0;
  int received = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++received; });
  for (int i = 0; i < 50; ++i) {
    network_.Send(NodeId(1), NodeId(2), Ping{i});
  }
  sim_.RunToCompletion();
  // A single flipped byte is always caught by the frame checksum.
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network_.stats().decode_drops, 50u);
  EXPECT_EQ(network_.stats().messages_dropped, 50u);
  EXPECT_EQ(network_.stats().messages_sent, 50u);
}

TEST_F(NetworkTest, TruncatedFramesSurfaceAsCountedDropsNeverCrashes) {
  network_.mutable_config()->serialize_on_send = true;
  network_.mutable_config()->truncate_probability = 1.0;
  int received = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++received; });
  for (int i = 0; i < 50; ++i) {
    network_.Send(NodeId(1), NodeId(2), Ping{i});
  }
  sim_.RunToCompletion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network_.stats().decode_drops, 50u);
}

TEST_F(NetworkTest, DuplicateHandlerRegistrationIsFatal) {
  b_.Handle<Ping>([](const Envelope&, const Ping&) {});
  EXPECT_DEATH(b_.Handle<Ping>([](const Envelope&, const Ping&) {}),
               "duplicate handler registration");
}

TEST_F(NetworkTest, ReplaceHandleAllowsDeliberateTakeover) {
  // The AM-restart pattern: a fresh component takes over a payload type
  // on a surviving endpoint.
  int first = 0, second = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping&) { ++first; });
  b_.ReplaceHandle<Ping>([&](const Envelope&, const Ping&) { ++second; });
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  sim_.RunToCompletion();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(NetworkTest, ReplaceHandleRegistersAFreshType) {
  int pongs = 0;
  b_.ReplaceHandle<Pong>([&](const Envelope&, const Pong&) { ++pongs; });
  network_.Send(NodeId(1), NodeId(2), Pong{1});
  sim_.RunToCompletion();
  EXPECT_EQ(pongs, 1);
  EXPECT_EQ(b_.unhandled(), 0u);
  // Taken now: a plain Handle for the same type is the wiring bug.
  EXPECT_DEATH(b_.Handle<Pong>([](const Envelope&, const Pong&) {}),
               "duplicate handler registration");
}

template <int N>
struct LateType {
  int value = N;
};
using TestLate3 = LateType<3>;
using TestLate31 = LateType<31>;
FUXI_WIRE_MESSAGE(TestLate3, 1, m.value)
FUXI_WIRE_MESSAGE(TestLate31, 1, m.value)

TEST_F(NetworkTest, HandlerMayRegisterHandlersWhileItRuns) {
  // Registering types from inside a handler grows the endpoint's handler
  // table under the running handler; the running one must survive it.
  int seen = 0;
  int late = 0;
  b_.Handle<Ping>([&](const Envelope&, const Ping& ping) {
    [&]<int... N>(std::integer_sequence<int, N...>) {
      (b_.Handle<LateType<N>>(
           [&](const Envelope&, const LateType<N>& m) { late += m.value; }),
       ...);
    }(std::make_integer_sequence<int, 32>{});
    seen = ping.value;  // reads the handler's captures after the growth
  });
  network_.Send(NodeId(1), NodeId(2), Ping{7});
  sim_.RunToCompletion();
  EXPECT_EQ(seen, 7);
  network_.Send(NodeId(1), NodeId(2), LateType<31>{});
  network_.Send(NodeId(1), NodeId(2), LateType<3>{});
  sim_.RunToCompletion();
  EXPECT_EQ(late, 34);
  EXPECT_EQ(b_.unhandled(), 0u);
}

TEST_F(NetworkTest, UnhandledPayloadsCountedByDemangledTypeName) {
  obs::MetricsRegistry metrics;
  network_.SetObservability(nullptr, &metrics);
  b_.Handle<Ping>([](const Envelope&, const Ping&) {});
  network_.Send(NodeId(1), NodeId(2), TestText{"a"});
  network_.Send(NodeId(1), NodeId(2), Pong{1});
  network_.Send(NodeId(1), NodeId(2), TestText{"b"});
  network_.Send(NodeId(1), NodeId(2), Ping{1});
  sim_.RunToCompletion();

  EXPECT_EQ(b_.unhandled(), 3u);
  const std::string text_name = Demangle(typeid(TestText).name());
  const std::string pong_name = Demangle(typeid(Pong).name());
  std::map<std::string, uint64_t> by_type = b_.UnhandledByType();
  EXPECT_EQ(by_type, (std::map<std::string, uint64_t>{{text_name, 2},
                                                      {pong_name, 1}}));
  EXPECT_EQ(metrics.GetCounter("net.unhandled." + text_name)->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("net.unhandled." + pong_name)->value(), 1u);
}

TEST_F(NetworkTest, EnvelopeCarriesThePayloadTypeSlot) {
  uint32_t seen = 0;
  b_.Handle<Pong>(
      [&](const Envelope& env, const Pong&) { seen = env.type_slot; });
  network_.Send(NodeId(1), NodeId(2), Pong{1});
  sim_.RunToCompletion();
  EXPECT_EQ(seen, PayloadSlot<Pong>());
  EXPECT_NE(PayloadSlot<Ping>(), PayloadSlot<Pong>());
  EXPECT_EQ(PayloadSlot<Pong>(), PayloadSlot<Pong>());
}

TEST(EndpointTest, UnstampedEnvelopeIsUnhandled) {
  // Only Network::Send stamps type slots. A hand-built envelope carries
  // kNoPayloadSlot and must not reach a handler for some other slot.
  Endpoint endpoint;
  int pings = 0;
  endpoint.Handle<Ping>([&](const Envelope&, const Ping&) { ++pings; });
  Envelope env;
  env.payload = Ping{1};
  EXPECT_EQ(env.type_slot, kNoPayloadSlot);
  EXPECT_FALSE(endpoint.Dispatch(env));
  EXPECT_EQ(pings, 0);
  EXPECT_EQ(endpoint.unhandled(), 1u);
  EXPECT_EQ(endpoint.UnhandledByType(),
            (std::map<std::string, uint64_t>{
                {Demangle(typeid(Ping).name()), 1}}));
}

TEST(EndpointTest, MismatchedTypeSlotFailsItsCheck) {
  Endpoint endpoint;
  endpoint.Handle<Ping>([](const Envelope&, const Ping&) {});
  Envelope env;
  env.type_slot = PayloadSlot<Ping>();
  env.payload = Pong{1};
  EXPECT_DEATH(endpoint.Dispatch(env), "does not match its payload");
}

TEST_F(NetworkTest, InFlightSlotsAreReusedWithoutMixingPayloads) {
  // Deliveries free their slab slots; later sends reuse them. Every
  // message must still arrive once, with its own payload, in the
  // latency-jittered order the simulator decides.
  std::vector<int> received;
  b_.Handle<Ping>([&](const Envelope&, const Ping& ping) {
    received.push_back(ping.value);
  });
  b_.Handle<Pong>([&](const Envelope& env, const Pong& pong) {
    // Replies sent from inside a handler take slots while this
    // envelope is still being delivered in place.
    if (pong.value > 0) {
      network_.Send(NodeId(1), NodeId(2), Ping{1000 + pong.value});
      network_.Send(env.from, NodeId(2), Pong{pong.value - 1});
    }
  });
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      network_.Send(NodeId(1), NodeId(2), Ping{round * 100 + i});
    }
    network_.Send(NodeId(1), NodeId(2), Pong{5});
    sim_.RunToCompletion();
  }
  std::sort(received.begin(), received.end());
  std::vector<int> expected;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) expected.push_back(round * 100 + i);
  }
  for (int round = 0; round < 3; ++round) {
    for (int v = 1; v <= 5; ++v) expected.push_back(1000 + v);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(received, expected);
}

}  // namespace
}  // namespace fuxi::net
