// Tests of the benchmark's own logic (bench_lib.hpp): the tail-percentile
// rule, the determinism of the seeded cohort and arrival schedule, span self
// time, and the metric-name alphabet — including every name BENCHMARK.json
// declares. run.py runs this binary after each build, before any run.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "bench_lib.hpp"

namespace perfbench {
namespace {

// ---- percentile rule ---------------------------------------------------------

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 50), 3);
  EXPECT_EQ(percentile(v, 100), 5);
  EXPECT_EQ(percentile(v, 1), 1);
  EXPECT_EQ(percentile(v, 80), 4);
  EXPECT_EQ(percentile(v, 81), 5);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, BestRateIsTheFastestPass) {
  EXPECT_EQ(best_rate({3.0, 9.0, 4.5}), 9.0);
  EXPECT_THROW(best_rate({}), std::invalid_argument);
}

TEST(Percentile, BestCompositeRateSumsEachStepsFastestTime) {
  // Step 0 is fastest in pass 1, step 1 in pass 0: 12 / (1 + 2).
  EXPECT_DOUBLE_EQ(best_composite_rate(12.0, {{3.0, 2.0}, {1.0, 5.0}}), 4.0);
  // A step that takes no time (work reused from an earlier step) adds none.
  EXPECT_DOUBLE_EQ(best_composite_rate(6.0, {{2.0, 0.0}, {3.0, 0.0}}), 3.0);
  EXPECT_THROW(best_composite_rate(1.0, {}), std::invalid_argument);
  EXPECT_THROW(best_composite_rate(1.0, {{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(best_composite_rate(1.0, {{0.0}}), std::invalid_argument);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10);
  EXPECT_EQ(samples_beyond(999, 99.0), 9);
  EXPECT_EQ(samples_beyond(100, 50.0), 50);
  EXPECT_EQ(samples_beyond(1, 99.0), 0);
}

TEST(Percentile, TailIsHighestWithTenBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  // Whatever the size, the chosen tail has at least 10 samples beyond it.
  for (int64_t n : {20, 57, 100, 1234, 5000, 10000, 77777}) {
    EXPECT_GE(samples_beyond(n, tail_percentile(n)), 10) << n;
  }
}

TEST(WindowedLatency, MedianOfWindowP99s) {
  // 2200 requests make two windows of 1100: latencies 1..1100 ms in the
  // first, 1101..2200 in the second, so the window p99s are 1089 and 2189.
  LatencySeries seg;
  for (int i = 0; i < 2200; ++i) {
    seg.emplace_back(i / 2200.0, i + 1.0);
  }
  const WindowedLatency w = windowed_latency({seg, seg, seg});
  EXPECT_EQ(w.samples, 6600);
  EXPECT_EQ(w.windows, 6);
  EXPECT_EQ(w.min_window_samples, 1100);
  EXPECT_EQ(w.p50_ms, 550.0);  // the calmer window's median
  EXPECT_EQ(w.p99_ms, 1089.0);  // nearest-rank median of {1089 x 3, 2189 x 3}
  EXPECT_EQ(w.window_p99s.size(), 6u);
  EXPECT_EQ(w.window_p99s[1], 2189.0);
}

TEST(WindowedLatency, WindowsHoldEnoughSamplesForAP99) {
  for (int64_t n : {1100, 2199, 2200, 5000, 9999, 50000}) {
    LatencySeries seg(static_cast<size_t>(n), {0.0, 1.0});
    const WindowedLatency w = windowed_latency({seg});
    EXPECT_EQ(w.windows, std::min<int64_t>(8, n / kWindowSamples)) << n;
    EXPECT_GE(samples_beyond(w.min_window_samples, 99.0), 10) << n;
  }
  LatencySeries small(1099, {0.0, 1.0});
  EXPECT_THROW(windowed_latency({small}), std::runtime_error);
}

// ---- rate ladder ---------------------------------------------------------------

TEST(RateLadder, GeometricSteps) {
  const std::vector<double> rates = rate_ladder(1500.0, 7500.0);
  ASSERT_GE(rates.size(), 2u);
  EXPECT_EQ(rates.front(), 1500.0);
  EXPECT_LE(rates.back(), 7500.0);
  EXPECT_GT(rates.back() * 1.06, 7500.0);
  for (size_t i = 1; i < rates.size(); ++i) {
    EXPECT_NEAR(rates[i] / rates[i - 1], 1.06, 0.01) << i;
  }
}

TEST(RateLadder, RungsHoldEnoughRequestsForAP99) {
  for (double rate : {500.0, 1500.0, 3000.0, 7500.0, 14800.0}) {
    const double s = rung_seconds(rate, 0.2);
    EXPECT_GE(s, 0.2);
    EXPECT_GE(rate * s, 1.25 * static_cast<double>(kWindowSamples)) << rate;
  }
  EXPECT_EQ(rung_seconds(100000.0, 0.2), 0.2);
}

LatencySeries steady_rung(int64_t n, double duration_s, double ms) {
  LatencySeries seg;
  for (int64_t i = 0; i < n; ++i) {
    seg.emplace_back(duration_s * static_cast<double>(i) /
                         static_cast<double>(n),
                     ms);
  }
  return seg;
}

TEST(RateLadder, RungJudgement) {
  // 1100 requests at 2 ms each over one second: holds under a 25 ms limit.
  LatencySeries seg = steady_rung(1100, 1.0, 2.0);
  EXPECT_TRUE(rung_holds(seg, 0, 1.0, 25.0));
  // Any failed request misses.
  EXPECT_FALSE(rung_holds(seg, 1, 1.0, 25.0));
  // Too few requests for a p99 by the tail rule: not judged as holding.
  EXPECT_FALSE(rung_holds(steady_rung(999, 1.0, 2.0), 0, 1.0, 25.0));
  // Twelve slow requests (more than 1 %) put the p99 over the limit.
  for (int i = 0; i < 12; ++i) {
    seg[static_cast<size_t>(90 * i + 45)].second = 30.0;
  }
  EXPECT_FALSE(rung_holds(seg, 0, 1.0, 25.0));
  // A backlog that grows: latency climbs linearly from 1 to 12 ms.
  LatencySeries growing = steady_rung(1100, 1.0, 0.0);
  for (size_t i = 0; i < growing.size(); ++i) {
    growing[i].second = 1.0 + 11.0 * static_cast<double>(i) / 1100.0;
  }
  EXPECT_FALSE(rung_holds(growing, 0, 1.0, 25.0));
}

// ---- seeded inputs -------------------------------------------------------------

std::vector<int64_t> labels_8_per_class(int64_t classes) {
  std::vector<int64_t> labels;
  for (int64_t c = 0; c < classes; ++c) {
    for (int i = 0; i < 8; ++i) {
      labels.push_back(c);
    }
  }
  return labels;
}

TEST(Cohort, ClassPairsAreFixedAndDistinct) {
  const std::vector<ClassPair> leading = {{14, 3}, {1, 5}};
  const std::vector<ClassPair> a = cohort_class_pairs(leading, 43, 16);
  const std::vector<ClassPair> b = cohort_class_pairs(leading, 43, 16);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a[0].source, 14);
  EXPECT_EQ(a[0].target, 3);
  EXPECT_EQ(a[1].source, 1);
  std::set<std::pair<int64_t, int64_t>> seen;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_NE(a[i].source, a[i].target);
    EXPECT_TRUE(seen.insert({a[i].source, a[i].target}).second);
  }
  // A shorter cohort is a prefix of a longer one.
  const std::vector<ClassPair> c = cohort_class_pairs(leading, 43, 4);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i].source, a[i].source);
    EXPECT_EQ(c[i].target, a[i].target);
  }
}

TEST(Cohort, DeterministicInTheSeed) {
  const std::vector<int64_t> labels = labels_8_per_class(43);
  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < static_cast<int64_t>(labels.size()); i += 2) {
    candidates.push_back(i);
  }
  const std::vector<ClassPair> pairs = cohort_class_pairs({}, 43, 32);
  const std::vector<AttackPair> a = make_cohort(7, pairs, candidates, labels);
  const std::vector<AttackPair> b = make_cohort(7, pairs, candidates, labels);
  const std::vector<AttackPair> c = make_cohort(8, pairs, candidates, labels);
  ASSERT_EQ(a.size(), pairs.size());
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(labels[static_cast<size_t>(a[i].source)], pairs[i].source);
    EXPECT_EQ(a[i].target, pairs[i].target);
    EXPECT_EQ(a[i].source % 2, 0) << "source outside the candidate pool";
    differs = differs || a[i].source != c[i].source;
  }
  EXPECT_TRUE(differs) << "another seed should pick other images";
}

TEST(Cohort, RefusesAClassWithoutCandidates) {
  const std::vector<int64_t> labels = labels_8_per_class(3);
  EXPECT_THROW(make_cohort(1, {{2, 0}}, {0, 1, 8}, labels),
               std::invalid_argument);
}

TEST(Schedule, DeterministicPoissonArrivals) {
  const std::vector<Arrival> a = make_schedule(3, 2000.0, 5.0, 64);
  const std::vector<Arrival> b = make_schedule(3, 2000.0, 5.0, 64);
  const std::vector<Arrival> c = make_schedule(4, 2000.0, 5.0, 64);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].image, b[i].image);
    EXPECT_GE(a[i].image, 0);
    EXPECT_LT(a[i].image, 64);
    EXPECT_LT(a[i].due_s, 5.0);
    if (i > 0) {
      EXPECT_GT(a[i].due_s, a[i - 1].due_s);
    }
  }
  // 10000 expected arrivals: the count is within 5 % (about 5 sigma).
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
  EXPECT_NE(a.front().due_s, c.front().due_s);
  EXPECT_THROW(make_schedule(3, 0.0, 1.0, 1), std::invalid_argument);
}

// ---- tracing -------------------------------------------------------------------

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer t;
  t.set_enabled(true);
  {
    ScopedSpan outer(t, "outer");
    ScopedSpan inner(t, "inner");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  const auto totals = t.totals();
  const Tracer::Totals& outer = totals.at("outer");
  const Tracer::Totals& inner = totals.at("inner");
  EXPECT_NEAR(outer.self_ms, outer.total_ms - inner.total_ms, 1e-9);
  EXPECT_EQ(inner.self_ms, inner.total_ms);
}

TEST(Tracer, InertWhenDisabled) {
  Tracer t;
  { ScopedSpan s(t, "x"); }
  EXPECT_TRUE(t.spans().empty());
}

// ---- metric names --------------------------------------------------------------

TEST(MetricNames, Alphabet) {
  EXPECT_TRUE(valid_metric_name("serve.light.p99_ms"));
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("0-a_b.c"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".x"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricNames, EveryDeclaredNameIsValid) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << "cannot read " << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  std::set<std::string> names;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    EXPECT_TRUE(valid_metric_name(name)) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_GT(names.size(), 10u);
}

}  // namespace
}  // namespace perfbench
