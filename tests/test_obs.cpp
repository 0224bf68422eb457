// The obs layer's contracts, locked by test:
//   - spans measure exactly what the injected clock says (ManualClock);
//   - counter totals and span counts are byte-identical at 1 vs 8 runner
//     threads (the determinism contract for everything in the metrics
//     report's "deterministic" block);
//   - enabling telemetry does not change a single byte of the campaign's
//     JSON/CSV aggregates;
//   - spans recorded across 8 threads nest properly, and the nesting check
//     actually rejects corrupt spans;
//   - the Chrome trace and the metrics report are pinned byte for byte;
//   - the per-thread span cap drops loudly (dropped_spans), never silently;
//   - recent_spans_this_thread returns the failure-report context in order.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/sweep_spec.hpp"

namespace {

using resloc::pipeline::MeasurementSource;
using resloc::pipeline::Solver;
using resloc::runner::CampaignResult;
using resloc::runner::CampaignRunner;
using resloc::runner::RunnerOptions;
using resloc::runner::SweepSpec;

namespace obs = resloc::obs;

/// Telemetry is process-global; every test starts from a clean, disabled
/// state and leaves it that way.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::set_capture_spans(false);
    obs::set_clock_source(nullptr);
    obs::set_max_spans_per_thread(1 << 20);
    obs::reset();
  }
  void TearDown() override { SetUp(); }
};

/// Deterministic test clock: each now_ns() call advances by a fixed step.
class ManualClock : public obs::ClockSource {
 public:
  explicit ManualClock(std::uint64_t step_ns) : step_ns_(step_ns) {}
  std::uint64_t now_ns() const override { return now_ns_ += step_ns_; }

 private:
  std::uint64_t step_ns_;
  mutable std::uint64_t now_ns_ = 0;
};

/// A small acoustic sweep exercising ranging, solver, and runner spans in
/// well under a second. LSS on one cell covers the gradient-descent and
/// constraint counters; the acoustic source covers the measure sub-stages.
SweepSpec obs_sweep() {
  SweepSpec spec;
  spec.name = "obs_unit";
  spec.seed = 42;
  spec.trials_per_cell = 2;
  spec.base.source = MeasurementSource::kAcousticRanging;
  spec.axes.scenarios = {"grass_grid"};
  spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
  spec.axes.node_counts = {16};
  spec.axes.anchor_counts = {6};
  return spec;
}

/// The `scale_smoke` sweep of resloc_campaign (uniform_n at 64 and 100
/// nodes x {progressive multilateration, DV-hop-seeded LSS}); the catalog
/// lives in the app, so the spec is spelled out here.
SweepSpec scale_smoke_sweep() {
  SweepSpec spec;
  spec.name = "scale_smoke";
  spec.seed = 7;
  spec.trials_per_cell = 1;
  spec.base.source = MeasurementSource::kSyntheticGaussian;
  spec.axes.scenarios = {"uniform_n"};
  spec.axes.node_counts = {64, 100};
  spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
  spec.axes.noise_sigmas = {0.33};
  spec.axes.anchor_counts = {16};
  spec.base.multilateration.progressive = true;
  spec.base.lss_init = resloc::pipeline::LssInit::kDvHopSeeded;
  spec.base.lss.restarts.rounds = 3;
  spec.base.lss.init_box_m = 130.0;
  return spec;
}

/// Name -> count map of every recorded stage, the schedule-independent view
/// of a snapshot (SpanIds depend on intern order, names do not).
std::map<std::string, std::uint64_t> stage_counts(const obs::TelemetrySnapshot& snap) {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t id = 0; id < snap.stage_totals.size(); ++id) {
    if (snap.stage_totals[id].count > 0) {
      out[snap.span_names[id]] = snap.stage_totals[id].count;
    }
  }
  return out;
}

TEST_F(ObsTest, DisabledRecordsNothing) {
  {
    RESLOC_SPAN("test/never");
    obs::add(obs::Counter::kMeasureCalls, 5);
  }
  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kMeasureCalls), 0u);
  EXPECT_EQ(snap.stage_count("test/never"), 0u);
}

TEST_F(ObsTest, ManualClockYieldsExactDurations) {
  const ManualClock clock(/*step_ns=*/100);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);

  {
    RESLOC_SPAN("test/outer");  // start at t=100
    {
      RESLOC_SPAN("test/inner");  // start at t=200, end at t=300
    }
  }  // outer ends at t=400

  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.stage_count("test/outer"), 1u);
  EXPECT_EQ(snap.stage_count("test/inner"), 1u);
  EXPECT_EQ(snap.stage_total_ns("test/outer"), 300u);  // 400 - 100
  EXPECT_EQ(snap.stage_total_ns("test/inner"), 100u);  // 300 - 200

  // The retained events carry the raw timestamps for the trace export.
  // (Thread buffers registered by other tests' pools survive reset(), so
  // locate this thread's buffer by its contents.)
  const obs::ThreadSnapshot* mine = nullptr;
  for (const obs::ThreadSnapshot& t : snap.threads) {
    if (!t.events.empty()) {
      ASSERT_EQ(mine, nullptr) << "only the calling thread should have recorded";
      mine = &t;
    }
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->events.size(), 2u);
  // Events are recorded at scope exit: inner closes before outer.
  EXPECT_EQ(mine->events[0].start_ns, 200u);
  EXPECT_EQ(mine->events[0].end_ns, 300u);
  EXPECT_EQ(mine->events[1].start_ns, 100u);
  EXPECT_EQ(mine->events[1].end_ns, 400u);
}

TEST_F(ObsTest, SpanChainSharesBoundaryClockReads) {
  const ManualClock clock(/*step_ns=*/100);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);

  {
    obs::SpanChain chain;
    RESLOC_SPAN_ENTER(chain, "test/chain_a");  // t=100
    RESLOC_SPAN_ENTER(chain, "test/chain_b");  // t=200 ends a, starts b
    RESLOC_SPAN_ENTER(chain, "test/chain_a");  // t=300 ends b, starts a
    RESLOC_SPAN_ENTER(chain, "test/chain_a");  // a is running: continues, no read
    chain.end();                               // t=400
    chain.end();                               // nothing running: no read
    RESLOC_SPAN_ENTER(chain, "test/chain_b");  // t=500
  }  // the destructor ends b at t=600

  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.stage_count("test/chain_a"), 2u);
  EXPECT_EQ(snap.stage_count("test/chain_b"), 2u);
  EXPECT_EQ(snap.stage_total_ns("test/chain_a"), 200u);  // [100,200) + [300,400)
  EXPECT_EQ(snap.stage_total_ns("test/chain_b"), 200u);  // [200,300) + [500,600)

  const obs::ThreadSnapshot* mine = nullptr;
  for (const obs::ThreadSnapshot& t : snap.threads) {
    if (!t.events.empty()) mine = &t;
  }
  ASSERT_NE(mine, nullptr);
  const std::uint64_t expect[][2] = {{100, 200}, {200, 300}, {300, 400}, {500, 600}};
  ASSERT_EQ(mine->events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mine->events[i].start_ns, expect[i][0]) << i;
    EXPECT_EQ(mine->events[i].end_ns, expect[i][1]) << i;
  }
}

TEST_F(ObsTest, DisabledSpanChainRecordsNothing) {
  {
    obs::SpanChain chain;
    obs::set_enabled(true);  // inert: disabled when the chain was built
    RESLOC_SPAN_ENTER(chain, "test/chain_never");
  }
  EXPECT_EQ(obs::snapshot().stage_count("test/chain_never"), 0u);
}

TEST_F(ObsTest, CountersAddOnlyWhenEnabled) {
  obs::set_enabled(true);
  obs::add(obs::Counter::kGdEvaluations, 3);
  obs::add(obs::Counter::kGdEvaluations);
  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kGdEvaluations), 4u);
  // Every counter has a stable, non-empty report key.
  for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(obs::Counter::kCount); ++c) {
    EXPECT_STRNE(obs::counter_name(static_cast<obs::Counter>(c)), "");
  }
}

TEST_F(ObsTest, CounterTotalsIdenticalAtOneVsEightThreads) {
  obs::set_enabled(true);
  const CampaignRunner single(RunnerOptions{1});
  const CampaignResult r1 = single.run(obs_sweep());
  const obs::TelemetrySnapshot snap1 = obs::snapshot();
  obs::reset();

  const CampaignRunner eight(RunnerOptions{8});
  const CampaignResult r8 = eight.run(obs_sweep());
  const obs::TelemetrySnapshot snap8 = obs::snapshot();

  // The deterministic block: every counter and every stage count matches
  // exactly -- integer sums over per-thread cells are order-independent.
  ASSERT_EQ(snap1.counters.size(), snap8.counters.size());
  for (std::size_t c = 0; c < snap1.counters.size(); ++c) {
    EXPECT_EQ(snap1.counters[c], snap8.counters[c])
        << "counter " << obs::counter_name(static_cast<obs::Counter>(c));
  }
  EXPECT_EQ(stage_counts(snap1), stage_counts(snap8));

  // Sanity: the sweep actually exercised all three instrumented layers.
  EXPECT_GT(snap1.counter(obs::Counter::kMeasureCalls), 0u);
  EXPECT_GT(snap1.counter(obs::Counter::kGdEvaluations), 0u);
  EXPECT_GT(snap1.counter(obs::Counter::kLssEdgeTerms), 0u);
  EXPECT_EQ(snap1.counter(obs::Counter::kRunnerTrials), r1.trials.size());
  EXPECT_GT(snap1.stage_count("ranging/measure"), 0u);
  EXPECT_GT(snap1.stage_count("solver/lss_solve"), 0u);
  EXPECT_GT(snap1.stage_count("pipeline/solve"), 0u);

  // And the aggregates themselves are byte-identical, threads and telemetry
  // notwithstanding.
  EXPECT_EQ(r1.to_json(), r8.to_json());
  EXPECT_EQ(r1.to_csv(), r8.to_csv());
}

TEST_F(ObsTest, LssSkinListRebuildsOnAFractionOfEvaluations) {
  // lss_neighbor_rebuilds is the reuse-rate instrument of the LSS skin list:
  // a descent rebuilds the candidate list only when some node has moved
  // half a skin, so it must fire, and far less often than the objective is
  // evaluated.
  obs::set_enabled(true);
  (void)CampaignRunner(RunnerOptions{2}).run(scale_smoke_sweep());
  const obs::TelemetrySnapshot snap = obs::snapshot();
  const std::uint64_t rebuilds = snap.counter(obs::Counter::kLssNeighborRebuilds);
  EXPECT_GT(rebuilds, 0u);
  EXPECT_LT(rebuilds, snap.counter(obs::Counter::kGdEvaluations));
  EXPECT_NE(obs::metrics_report_json(snap).find("\"lss_neighbor_rebuilds\""), std::string::npos);
}

TEST_F(ObsTest, TelemetryNeverChangesAggregateBytes) {
  const CampaignRunner runner(RunnerOptions{2});
  const CampaignResult off = runner.run(obs_sweep());

  obs::set_enabled(true);
  obs::set_capture_spans(true);
  const CampaignResult on = runner.run(obs_sweep());

  EXPECT_EQ(off.to_json(), on.to_json());
  EXPECT_EQ(off.to_csv(), on.to_csv());
}

TEST_F(ObsTest, TraceAcrossEightThreadsIsValidAndNested) {
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  const CampaignRunner runner(RunnerOptions{8});
  (void)runner.run(obs_sweep());

  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.dropped_spans, 0u);

  std::string error;
  EXPECT_TRUE(obs::check_span_nesting(snap, &error)) << error;
  EXPECT_NE(obs::to_chrome_trace_json(snap).find("\"ph\": \"X\""), std::string::npos);

  // The metrics report renders from the same snapshot without tripping over
  // multi-thread data.
  const std::string metrics = obs::metrics_report_json(snap);
  EXPECT_NE(metrics.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(metrics.find("\"non_deterministic\""), std::string::npos);
  EXPECT_NE(metrics.find("ranging/measure"), std::string::npos);
  EXPECT_FALSE(obs::metrics_report_text(snap).empty());
}

/// A hand-built snapshot: span ids 0 ("a") and 1 ("b"), one thread per
/// entry of `threads`, each holding the given (id, start, end) events.
obs::TelemetrySnapshot snapshot_of(const std::vector<std::vector<obs::SpanEvent>>& threads) {
  obs::TelemetrySnapshot snap;
  snap.span_names = {"a", "b"};
  for (std::size_t i = 0; i < threads.size(); ++i) {
    obs::ThreadSnapshot t;
    t.thread_index = i;
    t.events = threads[i];
    snap.threads.push_back(t);
  }
  return snap;
}

TEST_F(ObsTest, SpanNestingCheck) {
  std::string error;
  // Partial overlap on one thread: [0, 10) vs [5, 15) neither nests nor is
  // disjoint -- corrupt spans.
  EXPECT_FALSE(obs::check_span_nesting(snapshot_of({{{0, 0, 10}, {1, 5, 15}}}), &error));
  EXPECT_NE(error.find("tid 0"), std::string::npos) << error;
  // The same pair on *different* threads is fine.
  EXPECT_TRUE(obs::check_span_nesting(snapshot_of({{{0, 0, 10}}, {{1, 5, 15}}}), &error))
      << error;
  // Siblings sharing a boundary exactly (a SpanChain) are disjoint, in any
  // recording order and under an enclosing parent; a 1 ns overlap is caught.
  EXPECT_TRUE(obs::check_span_nesting(
      snapshot_of({{{1, 300, 1300}, {0, 100, 300}, {0, 100, 1300}}}), &error))
      << error;
  EXPECT_FALSE(obs::check_span_nesting(snapshot_of({{{0, 100, 301}, {1, 300, 1300}}}), &error));
  // A span that ends before it starts.
  EXPECT_FALSE(obs::check_span_nesting(snapshot_of({{{0, 10, 9}}}), &error));
  EXPECT_NE(error.find("ends before it starts"), std::string::npos) << error;
  // A span id past the interned names.
  EXPECT_FALSE(obs::check_span_nesting(snapshot_of({{{2, 0, 10}}}), &error));
  EXPECT_NE(error.find("unknown id 2"), std::string::npos) << error;
  // Containment and zero-length spans nest; no threads at all is fine.
  EXPECT_TRUE(obs::check_span_nesting(
      snapshot_of({{{0, 0, 100}, {1, 10, 20}, {1, 20, 20}, {0, 30, 100}}}), &error))
      << error;
  EXPECT_TRUE(obs::check_span_nesting(obs::TelemetrySnapshot{}, &error)) << error;
}

TEST_F(ObsTest, ChromeTraceAndMetricsBytesAreExact) {
  const ManualClock clock(/*step_ns=*/250000);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);

  {
    RESLOC_SPAN("test/outer");  // [250 us, 1000 us)
    {
      RESLOC_SPAN("test/\"quoted\" \\ name");  // [500 us, 750 us)
    }
  }
  obs::add(obs::Counter::kMeasureCalls, 3);
  // The clock is not thread-safe; the worker runs while this thread waits.
  std::thread([] {
    RESLOC_SPAN("test/\"quoted\" \\ name");  // [1250 us, 1500 us)
    obs::add(obs::Counter::kChirpWindows, 2);
  }).join();

  obs::TelemetrySnapshot snap = obs::snapshot();
  // Thread indices count every thread the process registered (earlier
  // tests' pools included); number the two recording threads 0 and 1.
  std::size_t next = 0;
  for (obs::ThreadSnapshot& t : snap.threads) {
    if (!t.events.empty()) t.thread_index = next++;
  }
  ASSERT_EQ(next, 2u);

  EXPECT_EQ(obs::to_chrome_trace_json(snap),
            "{\n"
            "  \"displayTimeUnit\": \"ms\",\n"
            "  \"traceEvents\": [\n"
            "    {\"name\": \"test/\\\"quoted\\\" \\\\ name\", \"cat\": \"resloc\", \"ph\": "
            "\"X\", \"pid\": 1, \"tid\": 0, \"ts\": 250.000, \"dur\": 250.000},\n"
            "    {\"name\": \"test/outer\", \"cat\": \"resloc\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": 0, \"ts\": 0.000, \"dur\": 750.000},\n"
            "    {\"name\": \"test/\\\"quoted\\\" \\\\ name\", \"cat\": \"resloc\", \"ph\": "
            "\"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1000.000, \"dur\": 250.000}\n"
            "  ]\n"
            "}\n");

  EXPECT_EQ(obs::metrics_report_json(snap),
            "{\n"
            "  \"report\": \"resloc_metrics\",\n"
            "  \"deterministic\": {\n"
            "    \"counters\": {\n"
            "      \"measure_calls\": 3,\n"
            "      \"measure_detections\": 0,\n"
            "      \"chirp_windows\": 2,\n"
            "      \"campaign_turns\": 0,\n"
            "      \"filtered_pairs\": 0,\n"
            "      \"gd_evaluations\": 0,\n"
            "      \"gd_iterations\": 0,\n"
            "      \"gd_backtracks\": 0,\n"
            "      \"gd_restart_rounds\": 0,\n"
            "      \"lss_edge_terms\": 0,\n"
            "      \"lss_constraint_pairs\": 0,\n"
            "      \"lss_neighbor_rebuilds\": 0,\n"
            "      \"runner_trials\": 0,\n"
            "      \"runner_trial_failures\": 0,\n"
            "      \"channel_cache_hits\": 0,\n"
            "      \"channel_cache_misses\": 0,\n"
            "      \"runner_trial_retries\": 0,\n"
            "      \"trial_fail_scenario_build\": 0,\n"
            "      \"trial_fail_config\": 0,\n"
            "      \"trial_fail_measurement\": 0,\n"
            "      \"trial_fail_solver\": 0,\n"
            "      \"trial_fail_non_std\": 0\n"
            "    },\n"
            "    \"stage_counts\": {\n"
            "      \"test/\\\"quoted\\\" \\\\ name\": 2,\n"
            "      \"test/outer\": 1\n"
            "    }\n"
            "  },\n"
            "  \"non_deterministic\": {\n"
            "    \"note\": \"wall-clock durations vary run to run; only the deterministic "
            "block above is byte-stable\",\n"
            "    \"stages\": [\n"
            "      {\"name\": \"test/\\\"quoted\\\" \\\\ name\", \"count\": 2, \"total_ms\": "
            "0.500, \"mean_us\": 250.000},\n"
            "      {\"name\": \"test/outer\", \"count\": 1, \"total_ms\": 0.750, \"mean_us\": "
            "750.000}\n"
            "    ],\n"
            "    \"threads\": [\n"
            "      {\"thread\": 0, \"stages\": {\"test/\\\"quoted\\\" \\\\ name\": 0.250, "
            "\"test/outer\": 0.750}},\n"
            "      {\"thread\": 1, \"stages\": {\"test/\\\"quoted\\\" \\\\ name\": 0.250}}\n"
            "    ],\n"
            "    \"dropped_spans\": 0\n"
            "  }\n"
            "}\n");
}

TEST_F(ObsTest, SpanCapDropsLoudly) {
  const ManualClock clock(1);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  obs::set_max_spans_per_thread(4);
  for (int i = 0; i < 10; ++i) {
    RESLOC_SPAN("test/capped");
  }
  const obs::TelemetrySnapshot snap = obs::snapshot();
  // Stage totals keep counting past the cap; only retained events stop.
  EXPECT_EQ(snap.stage_count("test/capped"), 10u);
  std::size_t retained = 0;
  for (const obs::ThreadSnapshot& t : snap.threads) retained += t.events.size();
  EXPECT_EQ(retained, 4u);
  EXPECT_EQ(snap.dropped_spans, 6u);
  // The capped recording still passes the nesting check.
  std::string error;
  EXPECT_TRUE(obs::check_span_nesting(snap, &error)) << error;
}

TEST_F(ObsTest, RecentSpansGiveFailureContextInOrder) {
  const ManualClock clock(10);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  {
    RESLOC_SPAN("test/first");
  }
  {
    RESLOC_SPAN("test/second");
  }
  {
    RESLOC_SPAN("test/third");
  }
  const std::vector<std::string> recent = obs::recent_spans_this_thread(2);
  ASSERT_EQ(recent.size(), 2u);
  // Oldest first among the last two completed spans.
  EXPECT_NE(recent[0].find("test/second"), std::string::npos);
  EXPECT_NE(recent[1].find("test/third"), std::string::npos);

  // Without span capture there is no buffer to report from.
  obs::reset();
  obs::set_capture_spans(false);
  {
    RESLOC_SPAN("test/uncaptured");
  }
  EXPECT_TRUE(obs::recent_spans_this_thread(8).empty());
}

TEST_F(ObsTest, ResetClearsDataButKeepsInterning) {
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  const obs::SpanId id = obs::intern_span("test/reset");
  EXPECT_EQ(obs::intern_span("test/reset"), id);
  {
    RESLOC_SPAN("test/reset");
  }
  obs::add(obs::Counter::kChirpWindows, 7);
  obs::reset();
  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.stage_count("test/reset"), 0u);
  EXPECT_EQ(snap.counter(obs::Counter::kChirpWindows), 0u);
  EXPECT_EQ(obs::intern_span("test/reset"), id);
}

}  // namespace
