#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace fuxi {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::Timeout("slow"); };
  auto outer = [&]() -> Status {
    FUXI_RETURN_IF_ERROR(inner());
    return Status::Ok();
  };
  EXPECT_TRUE(outer().IsTimeout());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto make = [](bool ok) -> Result<int> {
    if (ok) return 7;
    return Status::NotFound("x");
  };
  auto use = [&](bool ok) -> Result<int> {
    FUXI_ASSIGN_OR_RETURN(int v, make(ok));
    return v * 2;
  };
  EXPECT_EQ(*use(true), 14);
  EXPECT_TRUE(use(false).status().IsNotFound());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRespectsProbabilityRoughly) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ExponentialHasRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.3);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(77);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(RngTest, WeightedIndexPrefersHeavyWeights) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 5);
}

// ------------------------------------------------------------------ JSON

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->as_bool(), true);
  EXPECT_EQ(Json::Parse("-3.5")->as_number(), -3.5);
  EXPECT_EQ(Json::Parse("\"hi\\n\"")->as_string(), "hi\n");
}

TEST(JsonTest, ParsesNestedStructures) {
  auto result = Json::Parse(R"({"Tasks": {"T1": {"n": 3}}, "Pipes": [1, 2]})");
  ASSERT_TRUE(result.ok());
  const Json& json = *result;
  const Json* tasks = json.Find("Tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->Find("T1")->GetInt("n"), 3);
  EXPECT_EQ(json.Find("Pipes")->as_array().size(), 2u);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, RoundTripsThroughDump) {
  const char* text =
      R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}, "e": -7})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  auto reparsed = Json::Parse(parsed->Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*parsed, *reparsed);
}

TEST(JsonTest, EscapesSpecialCharacters) {
  Json j(std::string("a\"b\\c\nd"));
  auto round = Json::Parse(j.Dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->as_string(), "a\"b\\c\nd");
}

TEST(JsonTest, UnicodeEscapeDecodes) {
  auto parsed = Json::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "A\xc3\xa9");
}

TEST(JsonTest, BuilderInterfaceComposes) {
  Json job = Json::MakeObject();
  job["name"] = Json("sort");
  job["tasks"].Append(Json("map"));
  job["tasks"].Append(Json("reduce"));
  EXPECT_EQ(job.Dump(), R"({"name":"sort","tasks":["map","reduce"]})");
}

TEST(JsonTest, GettersFallBackOnTypeMismatch) {
  auto json = Json::Parse(R"({"n": "not-a-number"})");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->GetInt("n", -5), -5);
  EXPECT_EQ(json->GetString("missing", "dflt"), "dflt");
}

TEST(JsonTest, DeepNestingIsRejectedNotCrashing) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

// --------------------------------------------------------------- Strings

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = Split("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "");
}

TEST(StringsTest, JoinInvertsSplit) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(Join(pieces, "/"), "x/y/z");
  EXPECT_EQ(Split("x/y/z", '/'), pieces);
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("pangu://path", "pangu://"));
  EXPECT_FALSE(StartsWith("p", "pangu"));
  EXPECT_TRUE(EndsWith("file.json", ".json"));
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3), "0.33");
}

TEST(StringsTest, FormatBytesPicksUnits) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KB");
  EXPECT_EQ(FormatBytes(2.5 * 1024 * 1024 * 1024), "2.50 GB");
}

// --------------------------------------------------------------- Metrics

TEST(HistogramTest, TracksBasicAggregates) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(HistogramTest, PercentilesInterpolate) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(95), 95.05, 0.1);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100);
}

TEST(HistogramTest, WelfordVarianceMatchesClosedForm) {
  Histogram h;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.Add(v);
  EXPECT_NEAR(h.variance(), 32.0 / 7.0, 1e-9);  // sample variance
}

TEST(HistogramTest, PercentileAfterAddStaysCorrect) {
  Histogram h;
  h.Add(10);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 10);
  h.Add(20);  // must re-sort internally
  EXPECT_DOUBLE_EQ(h.Percentile(100), 20);
}

TEST(HistogramTest, ReservoirCapsBufferButStreamsExactAggregates) {
  Histogram h;
  h.SetSampleCap(100);
  for (int i = 1; i <= 10000; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.sample_count(), 100u);  // buffer bounded
  // Streaming stats still cover every sample exactly.
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10000.0);
  EXPECT_NEAR(h.mean(), 5000.5, 1e-9);
  // The reservoir is an unbiased uniform sample, so the median estimate
  // lands near the true median (loose bound: +/- 20% is far outside
  // what Algorithm R with 100 samples produces for this range).
  EXPECT_NEAR(h.Percentile(50), 5000.0, 2000.0);
}

TEST(HistogramTest, ReservoirIsDeterministicAcrossInstances) {
  Histogram a;
  Histogram b;
  a.SetSampleCap(64);
  b.SetSampleCap(64);
  for (int i = 0; i < 5000; ++i) {
    a.Add(i * 3.0);
    b.Add(i * 3.0);
  }
  // Fixed-seed generator: identical Add() sequences keep identical
  // reservoirs, so replayed campaigns report identical percentiles.
  for (double q : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(q), b.Percentile(q));
  }
  a.Clear();
  for (int i = 0; i < 5000; ++i) a.Add(i * 3.0);
  EXPECT_DOUBLE_EQ(a.Percentile(50), b.Percentile(50));  // Clear reseeds
}

TEST(HistogramTest, PercentilesExactBelowCap) {
  Histogram h;
  h.SetSampleCap(100);
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.sample_count(), 100u);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);  // exact, no sampling yet
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100);
}

TEST(HistogramTest, ShrinkingCapTruncatesAndZeroCapDisablesPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  h.SetSampleCap(10);
  EXPECT_EQ(h.sample_count(), 10u);
  h.SetSampleCap(0);
  EXPECT_EQ(h.sample_count(), 0u);
  h.Add(42);
  EXPECT_EQ(h.sample_count(), 0u);       // streaming-only mode
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0);  // no buffer, documented zero
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

/// Reference: the percentiles read off a fully sorted copy.
std::vector<double> SortedPercentiles(std::vector<double> samples,
                                      const std::vector<double>& quantiles) {
  std::vector<double> out(quantiles.size(), 0.0);
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  for (size_t i = 0; i < quantiles.size(); ++i) {
    double q = quantiles[i];
    if (q <= 0) {
      out[i] = samples.front();
    } else if (q >= 100) {
      out[i] = samples.back();
    } else {
      double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
      size_t lo = static_cast<size_t>(rank);
      double frac = rank - static_cast<double>(lo);
      out[i] = lo + 1 >= samples.size()
                   ? samples.back()
                   : samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
    }
  }
  return out;
}

TEST(HistogramTest, PercentilesSnapshotMatchesSortedReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    // Sizes 1 and 2 come up on every tenth trial; small value ranges
    // make duplicates common.
    size_t size = trial % 10 == 0   ? 1
                  : trial % 10 == 1 ? 2
                                    : 1 + rng.Uniform(200);
    int64_t range = trial % 3 == 0 ? 4 : 1000;
    Histogram h;
    std::vector<double> values;
    for (size_t i = 0; i < size; ++i) {
      double v = static_cast<double>(rng.UniformRange(1, range)) / 8.0;
      h.Add(v);
      values.push_back(v);
    }
    std::vector<double> quantiles = {0.0, 50.0, 99.0, 100.0,
                                     rng.NextDouble() * 100.0, 25.0};
    std::vector<double> got = h.PercentilesSnapshot(quantiles);
    std::vector<double> want = SortedPercentiles(values, quantiles);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // Bit-identical, not merely close: replays digest these values.
      EXPECT_EQ(got[i], want[i])
          << "trial " << trial << " size " << size << " q " << quantiles[i];
    }
  }
}

TEST(HistogramTest, PercentilesSnapshotOfFullReservoirMatchesPercentile) {
  // Two histograms fed the same values; only `h` is snapshotted mid-run.
  Histogram h;
  Histogram twin;
  h.SetSampleCap(64);
  twin.SetSampleCap(64);
  Rng rng(7);
  auto add = [&](int n) {
    for (int i = 0; i < n; ++i) {
      double v = static_cast<double>(rng.Uniform(50));
      h.Add(v);
      twin.Add(v);
    }
  };
  std::vector<double> quantiles = {0.0, 1.0, 50.0, 99.0, 100.0};
  add(5000);
  std::vector<double> got = h.PercentilesSnapshot(quantiles);
  Histogram sorted_copy = twin;  // Percentile() sorts its own reservoir
  for (size_t i = 0; i < quantiles.size(); ++i) {
    EXPECT_EQ(got[i], sorted_copy.Percentile(quantiles[i]));
  }
  // The snapshot left h's reservoir order alone, so later evictions
  // replace the same elements in both and the two still agree.
  add(1000);
  got = h.PercentilesSnapshot(quantiles);
  sorted_copy = twin;
  for (size_t i = 0; i < quantiles.size(); ++i) {
    EXPECT_EQ(got[i], sorted_copy.Percentile(quantiles[i]));
  }
}

TEST(TimeSeriesTest, DownsampleAveragesBuckets) {
  TimeSeries series;
  for (int i = 0; i < 100; ++i) {
    series.Add(i, i % 2 == 0 ? 0.0 : 2.0);
  }
  TimeSeries down = series.Downsample(10);
  EXPECT_LE(down.size(), 10u);
  for (const auto& p : down.points()) EXPECT_NEAR(p.value, 1.0, 0.3);
}

TEST(TimeSeriesTest, DownsampleEmptySeriesIsEmpty) {
  TimeSeries series;
  EXPECT_TRUE(series.Downsample(5).empty());
  EXPECT_TRUE(series.Downsample(0).empty());
}

TEST(TimeSeriesTest, DownsampleMoreBucketsThanPointsIsIdentity) {
  TimeSeries series;
  series.Add(0, 1);
  series.Add(1, 5);
  series.Add(2, 3);
  TimeSeries down = series.Downsample(10);
  ASSERT_EQ(down.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(down.points()[i].time, series.points()[i].time);
    EXPECT_DOUBLE_EQ(down.points()[i].value, series.points()[i].value);
  }
}

TEST(TimeSeriesTest, DownsampleSingleBucketAveragesEverything) {
  TimeSeries series;
  for (int i = 0; i < 10; ++i) series.Add(i, i);
  TimeSeries down = series.Downsample(1);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_DOUBLE_EQ(down.points()[0].value, 4.5);
}

TEST(TimeSeriesTest, DownsampleZeroTimeWidthCollapsesToMean) {
  TimeSeries series;  // all points share one timestamp
  series.Add(3.0, 2);
  series.Add(3.0, 4);
  series.Add(3.0, 6);
  series.Add(3.0, 8);
  TimeSeries down = series.Downsample(2);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_DOUBLE_EQ(down.points()[0].time, 3.0);
  EXPECT_DOUBLE_EQ(down.points()[0].value, 5.0);
}

TEST(TimeSeriesTest, MeanAndMax) {
  TimeSeries series;
  series.Add(0, 1);
  series.Add(1, 5);
  series.Add(2, 3);
  EXPECT_DOUBLE_EQ(series.MeanValue(), 3.0);
  EXPECT_DOUBLE_EQ(series.MaxValue(), 5.0);
}

}  // namespace
}  // namespace fuxi
