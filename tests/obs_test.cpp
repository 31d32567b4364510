// The observability subsystem: counter/gauge/histogram semantics, the
// find-or-create registry, span nesting and the deterministic (round, lane,
// seq) merge, the per-lane record cap, and byte-exact golden files for the
// Chrome-trace and JSONL exporters.
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dolbie::obs {
namespace {

// --- metrics ---------------------------------------------------------------

TEST(Counter, AddValueReset) {
  counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetValueReset) {
  gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(1.5);
  g.set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Histogram, UpperInclusiveBucketing) {
  histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1           -> bucket 0
  h.observe(1.0);  // == bound, inclusive -> bucket 0
  h.observe(1.5);  // <= 2           -> bucket 1
  h.observe(4.0);  // <= 4           -> bucket 2
  h.observe(9.0);  // beyond all     -> overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
  EXPECT_THROW(h.bucket_count(4), invariant_error);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(histogram({1.0, 1.0}), invariant_error);
  EXPECT_THROW(histogram({2.0, 1.0}), invariant_error);
  // Empty bounds are legal: everything lands in the overflow bucket.
  histogram h({});
  h.observe(3.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  metrics_registry m;
  EXPECT_TRUE(m.empty());
  counter& a = m.counter_named("x.count");
  counter& b = m.counter_named("x.count");
  EXPECT_EQ(&a, &b);  // same name -> same instrument
  gauge& g = m.gauge_named("x.gauge");
  EXPECT_EQ(&g, &m.gauge_named("x.gauge"));
  histogram& h = m.histogram_named("x.hist", {1.0, 2.0});
  // Bounds of an existing histogram are not re-consulted.
  EXPECT_EQ(&h, &m.histogram_named("x.hist", {9.0}));
  EXPECT_EQ(h.bounds().size(), 2u);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry, IndexedLookupFindsEveryRegistrant) {
  // Thousands of registrants, each looked up again through a name built in
  // a fresh temporary: the index must hand back the first registration's
  // instrument, never a new one, and keep the three kinds apart.
  metrics_registry m;
  constexpr int kNames = 2000;
  std::vector<counter*> counters;
  std::vector<gauge*> gauges;
  for (int i = 0; i < kNames; ++i) {
    counters.push_back(&m.counter_named("peer" + std::to_string(i)));
    gauges.push_back(&m.gauge_named("peer" + std::to_string(i)));
  }
  histogram& h = m.histogram_named("peer0", {1.0});
  for (int i = kNames - 1; i >= 0; --i) {
    const std::string name = "peer" + std::to_string(i);
    EXPECT_EQ(&m.counter_named(name), counters[i]) << name;
    EXPECT_EQ(&m.gauge_named(name), gauges[i]) << name;
  }
  EXPECT_EQ(&m.histogram_named("peer0"), &h);
  m.counter_named("peer7").add(3);
  EXPECT_EQ(counters[7]->value(), 3u);
  EXPECT_EQ(m.snapshot().size(), 2u * kNames + 1u);
}

TEST(MetricsRegistry, SnapshotSortedAndFormatted) {
  metrics_registry m;
  m.counter_named("b.count").add(7);
  m.gauge_named("a.gauge").set(0.25);
  m.histogram_named("c.hist", {1.0}).observe(0.5);
  const std::vector<metric_row> rows = m.snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "a.gauge");
  EXPECT_EQ(rows[0].type, "gauge");
  EXPECT_EQ(rows[0].value, "0.25");
  EXPECT_EQ(rows[1].name, "b.count");
  EXPECT_EQ(rows[1].type, "counter");
  EXPECT_EQ(rows[1].value, "7");
  EXPECT_EQ(rows[2].name, "c.hist");
  EXPECT_EQ(rows[2].type, "histogram");
  EXPECT_EQ(rows[2].value, "count=1 sum=0.5 le1=1 inf=0");
  m.reset();
  // Registrations (and cached references) survive a reset; values zero.
  EXPECT_EQ(m.snapshot()[1].value, "0");
}

// --- tracing ---------------------------------------------------------------

// A small fixed trace reused by the merge and exporter tests: a round span
// on lane 0 enclosing an instant and a nested phase span, plus an instant
// on lane 1.
tracer_options logical_options() { return {}; }

void record_fixture(tracer& tr) {
  span outer(&tr, 0, 0, "round", "mw");  // lane 0: begin tick 0
  tr.instant(0, 0, "straggler_elected", "mw", {arg_int("worker", 3)});
  {
    span inner(&tr, 0, 0, "phase1", "mw");  // begin tick 2, end tick 3
  }
  outer.arg("alpha", 0.5);
  tr.instant(1, 0, "message_dropped", "net",
             {arg_int("from", 0), arg_int("to", 1)});
  // outer destructs last: end tick 4, dur 4.
}

TEST(Tracer, MergeOrdersByRoundLaneSeqAndParentsFirst) {
  tracer tr(logical_options());
  record_fixture(tr);
  const std::vector<trace_record> merged = tr.merged();
  ASSERT_EQ(merged.size(), 4u);
  // The enclosing span sorts before its children: seq is the *begin* tick.
  EXPECT_EQ(merged[0].name, "round");
  EXPECT_EQ(merged[0].seq, 0u);
  EXPECT_EQ(merged[0].dur, 4.0);
  EXPECT_EQ(merged[1].name, "straggler_elected");
  EXPECT_EQ(merged[1].seq, 1u);
  EXPECT_EQ(merged[2].name, "phase1");
  EXPECT_EQ(merged[2].dur, 1.0);
  EXPECT_EQ(merged[3].name, "message_dropped");
  EXPECT_EQ(merged[3].lane, 1u);
  EXPECT_EQ(merged[3].seq, 0u);
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 0u);
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
}

TEST(Tracer, NullSpanIsInert) {
  span sp(nullptr, 0, 0, "round", "mw");
  EXPECT_FALSE(static_cast<bool>(sp));
  sp.arg("k", 1.0);  // must be a no-op, not a crash
  span defaulted;
  EXPECT_FALSE(static_cast<bool>(defaulted));
}

TEST(Tracer, PerLaneCapDropsButTicksAdvance) {
  tracer tr({.clock = clock_kind::logical, .max_records_per_lane = 2});
  for (int i = 0; i < 5; ++i) tr.instant(0, 0, "e", "t");
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.dropped(), 3u);
  // Ticks advanced through the drops, so a later record still gets a
  // deterministic, collision-free seq.
  const auto merged = tr.merged();
  EXPECT_EQ(merged[0].seq, 0u);
  EXPECT_EQ(merged[1].seq, 1u);
  tr.clear();
  tr.instant(0, 7, "f", "t");
  EXPECT_EQ(tr.merged()[0].seq, 0u);  // clear() also rewinds lane clocks
}

TEST(Tracer, WallClockProducesNonNegativeDurations) {
  tracer tr({.clock = clock_kind::wall});
  {
    span sp(&tr, 0, 0, "round", "mw");
  }
  const auto merged = tr.merged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_GE(merged[0].ts, 0.0);
  EXPECT_GE(merged[0].dur, 0.0);
}

TEST(Tracer, ConcurrentLanesMergeIdenticallyToSerial) {
  const auto run = [](std::size_t threads) {
    tracer tr(logical_options());
    thread_pool pool(threads);
    pool.parallel_for(8, [&](std::size_t lane) {
      // One lane per slot: each lane has a single owning thread, and its
      // content depends only on the lane index — the PR 1 contract.
      for (std::uint64_t round = 0; round < 3; ++round) {
        span sp(&tr, static_cast<std::uint32_t>(lane), round, "round", "t");
        sp.arg("lane", static_cast<std::uint64_t>(lane));
      }
    });
    std::ostringstream out;
    export_jsonl(out, tr.merged());
    return out.str();
  };
  const std::string serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(Tracer, ManyLaneShardSpansMergeIdenticallyToSerial) {
  // Lanes >> threads: the hierarchical engine's layout. Each of 64 shard
  // lanes records the shape of a shard round — an outer round span with a
  // nested phase span and an instant — while a pool narrower than the lane
  // count recycles its threads across many lanes per barrier window. A
  // lane still has exactly one writer at a time, so the (round, lane, seq)
  // merge is byte-identical at any width.
  constexpr std::size_t kLanes = 64;
  const auto run = [](std::size_t threads) {
    tracer tr(logical_options());
    thread_pool pool(threads);
    for (std::uint64_t round = 0; round < 3; ++round) {
      pool.parallel_for(kLanes, [&](std::size_t lane_idx) {
        const auto lane = static_cast<std::uint32_t>(lane_idx);
        span sp(&tr, lane, round, "round", "shard");
        {
          span phase(&tr, lane, round, "phase1.cost_uploads", "shard");
          tr.instant(lane, round, "straggler_elected", "shard",
                     {arg_int("worker", static_cast<std::uint64_t>(lane_idx))});
        }
        sp.arg("alpha", 1.0 / static_cast<double>(lane_idx + 1));
      });
    }
    std::ostringstream out;
    export_jsonl(out, tr.merged());
    return out.str();
  };
  const std::string serial = run(1);
  EXPECT_NE(serial.find("\"lane\":63"), std::string::npos);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

// --- exporters -------------------------------------------------------------

TEST(Export, ChromeTraceGolden) {
  tracer tr(logical_options());
  record_fixture(tr);
  std::ostringstream out;
  export_chrome_trace(out, tr.merged());
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"round\",\"cat\":\"mw\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
      "\"ts\":0,\"dur\":4,\"args\":{\"round\":0,\"alpha\":0.5}},\n"
      "{\"name\":\"straggler_elected\",\"cat\":\"mw\",\"ph\":\"i\",\"pid\":0,"
      "\"tid\":0,\"ts\":1,\"s\":\"t\",\"args\":{\"round\":0,\"worker\":3}},\n"
      "{\"name\":\"phase1\",\"cat\":\"mw\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
      "\"ts\":2,\"dur\":1,\"args\":{\"round\":0}},\n"
      "{\"name\":\"message_dropped\",\"cat\":\"net\",\"ph\":\"i\",\"pid\":0,"
      "\"tid\":1,\"ts\":0,\"s\":\"t\",\"args\":{\"round\":0,\"from\":0,"
      "\"to\":1}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Export, JsonlGolden) {
  tracer tr(logical_options());
  record_fixture(tr);
  std::ostringstream out;
  export_jsonl(out, tr.merged());
  const std::string expected =
      "{\"round\":0,\"lane\":0,\"seq\":0,\"ts\":0,\"dur\":4,\"kind\":\"span\","
      "\"cat\":\"mw\",\"name\":\"round\",\"args\":{\"round\":0,"
      "\"alpha\":0.5}}\n"
      "{\"round\":0,\"lane\":0,\"seq\":1,\"ts\":1,\"dur\":0,"
      "\"kind\":\"instant\",\"cat\":\"mw\",\"name\":\"straggler_elected\","
      "\"args\":{\"round\":0,\"worker\":3}}\n"
      "{\"round\":0,\"lane\":0,\"seq\":2,\"ts\":2,\"dur\":1,\"kind\":\"span\","
      "\"cat\":\"mw\",\"name\":\"phase1\",\"args\":{\"round\":0}}\n"
      "{\"round\":0,\"lane\":1,\"seq\":0,\"ts\":0,\"dur\":0,"
      "\"kind\":\"instant\",\"cat\":\"net\",\"name\":\"message_dropped\","
      "\"args\":{\"round\":0,\"from\":0,\"to\":1}}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Export, PrometheusGolden) {
  // Byte-exact golden for the scrape-endpoint exporter: dotted registry
  // names sanitized to the Prometheus grammar, histogram buckets rendered
  // cumulatively with the +Inf catch-all, samples sorted by name.
  metrics_registry m;
  m.counter_named("net.messages_sent").add(7);
  m.gauge_named("alpha.value").set(0.25);
  histogram& h = m.histogram_named("round.latency", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(10.0);
  std::ostringstream out;
  export_prometheus(out, m);
  const std::string expected =
      "# TYPE alpha_value gauge\n"
      "alpha_value 0.25\n"
      "# TYPE net_messages_sent counter\n"
      "net_messages_sent 7\n"
      "# TYPE round_latency histogram\n"
      "round_latency_bucket{le=\"1\"} 1\n"
      "round_latency_bucket{le=\"5\"} 2\n"
      "round_latency_bucket{le=\"+Inf\"} 3\n"
      "round_latency_sum 13.5\n"
      "round_latency_count 3\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Export, PrometheusHttpResponseFramesTheBody) {
  metrics_registry m;
  m.counter_named("x").add(1);
  const std::string response = prometheus_http_response(m);
  const std::string body = "# TYPE x counter\nx 1\n";
  std::ostringstream expected;
  expected << "HTTP/1.0 200 OK\r\n"
           << "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
           << "Content-Length: " << body.size() << "\r\n"
           << "Connection: close\r\n\r\n"
           << body;
  EXPECT_EQ(response, expected.str());
}

TEST(Export, PrometheusNameSanitization) {
  metrics_registry m;
  m.counter_named("9lives.of-a.metric").add(2);
  std::ostringstream out;
  export_prometheus(out, m);
  EXPECT_EQ(out.str(),
            "# TYPE _9lives_of_a_metric counter\n_9lives_of_a_metric 2\n");
}

TEST(Export, EscapesAndNumbers) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(-17.0), "-17");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(1e300), "1.0000000000000001e+300");
  // Non-finite values must not produce invalid JSON.
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
}

}  // namespace
}  // namespace dolbie::obs
