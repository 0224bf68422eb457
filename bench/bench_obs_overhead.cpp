// Telemetry overhead on the survey-density fixture, measured and gated.
//
// The obs layer's cost contract (src/obs/telemetry.hpp) has two halves:
//   1. Disabled (the default), a span is one relaxed atomic load + branch.
//      Gate: < 2% of the survey-density campaign. Measured as a tight
//      microbench of the disabled RESLOC_SPAN cost multiplied by the
//      campaign's spans-per-measure ratio -- a single binary cannot compare
//      against an uninstrumented build, but cost-per-span x spans-per-unit
//      bounds the same quantity without needing one.
//   2. Enabled (--trace/--metrics), a span is two clock reads plus two
//      thread-local array updates. Gate: < 10%, measured directly as the
//      end-to-end enabled/disabled wall-time ratio of the same campaign.
//
// The third gate is the attribution claim ISSUE 7 / ROADMAP item 1 rest on:
// the named sub-stage spans (synthesis/channel/detection) must account for
// >= 90% of ranging/measure wall time, so the ~110 us/pair budget is a
// measured stage breakdown rather than a hypothesis.
//
// Results are printed and written as JSON (default BENCH_obs.json, or
// argv[1]); a failed gate exits nonzero so CI blocks on regressions.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "math/rng.hpp"
#include "obs/telemetry.hpp"
#include "sim/field_experiment.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

namespace {

volatile std::size_t g_sink = 0;

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  bench::print_banner("Telemetry overhead on the survey-density campaign");
  const double bench_start_s = bench::now_s();

  // The survey-density fixture: the same uniform_n + grass campaign
  // bench_campaign_scale's e2e points use, at n = 100 so a rep is ~0.3 s.
  math::Rng deploy_rng(0xAC5 + 100);
  sim::ScenarioParams params;
  params.node_count = 100;
  const core::Deployment deployment = sim::build_scenario("uniform_n", params, deploy_rng);
  const sim::FieldExperimentConfig config = sim::grass_campaign_config();

  const auto campaign = [&] {
    math::Rng rng(7);
    const auto data = sim::run_field_experiment(deployment, config, rng);
    g_sink = data.samples.size();
  };

  // --- End to end: telemetry off (the default production mode) vs fully on
  // (counters + stage totals + retained span events, the --trace
  // configuration). The overhead is a few percent of a ~0.2 s campaign, well
  // under this box's wall-clock noise, so it goes through the interleaved
  // estimator (bench::interleave; each sample times 2 campaigns): timing
  // all-off-then-all-on would let a drift between the phases masquerade as
  // overhead several times the real effect. With 9 pairs the median read
  // 0.7-9.6% across runs of one build, so the 10% gate could fail on noise
  // alone; with 27 it read 2.2-6.5% over 23 runs (6-8 s a run on a 4-core VM).
  constexpr int kPairs = 27;
  constexpr int kCampaignsPerSample = 2;
  const auto sample = [&](bool enabled) {
    return [&campaign, enabled] {
      obs::set_enabled(enabled);
      obs::set_capture_spans(enabled);
      for (int c = 0; c < kCampaignsPerSample; ++c) campaign();
    };
  };
  obs::reset();
  const auto off_on = bench::interleave(kPairs, {sample(false), sample(true)});
  const bench::Quartiles disabled = bench::quartiles(off_on[0]).scaled(1.0 / kCampaignsPerSample);
  const bench::Quartiles enabled = bench::quartiles(off_on[1]).scaled(1.0 / kCampaignsPerSample);
  const bench::Quartiles on_off = bench::ratio_quartiles(off_on[1], off_on[0]);
  const bench::Quartiles overhead{on_off.q1 - 1.0, on_off.median - 1.0, on_off.q3 - 1.0};

  // The instrumented runs also yield the stage attribution and the
  // spans-per-measure ratio (counts are deterministic; pairs just repeat them).
  const obs::TelemetrySnapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::set_capture_spans(false);

  // The counters accumulated over every enabled campaign; per-measure stage
  // averages divide by the accumulated count, per-campaign quantities by the
  // per-run count.
  const std::uint64_t measures = snap.counter(obs::Counter::kMeasureCalls);
  const std::uint64_t measures_per_run =
      measures / static_cast<std::uint64_t>(kPairs * kCampaignsPerSample);
  std::uint64_t total_spans = 0;
  for (const obs::StageTotal& t : snap.stage_totals) total_spans += t.count;
  const double spans_per_measure =
      measures > 0 ? static_cast<double>(total_spans) / static_cast<double>(measures) : 0.0;

  const double measure_ns = snap.stage_total_ns("ranging/measure") > 0
                                ? static_cast<double>(snap.stage_total_ns("ranging/measure")) /
                                      static_cast<double>(measures)
                                : 0.0;
  // Attribution is computed over whatever kernel-stage spans the measure path
  // actually emitted: every "ranging/*" span except the enclosing
  // "ranging/measure" itself and the campaign-level "ranging/filtering". The
  // block-DSP and per-sample paths emit different stage taxonomies
  // (ranging/synthesis/noise vs ranging/synthesis, ...); enumerating the
  // snapshot keeps the >= 90% claim honest for both without hardcoding either.
  std::vector<std::pair<std::string, std::uint64_t>> stages;
  std::uint64_t attributed_total_ns = 0;
  for (std::size_t i = 0; i < snap.span_names.size() && i < snap.stage_totals.size(); ++i) {
    const std::string& name = snap.span_names[i];
    if (name.rfind("ranging/", 0) != 0) continue;
    if (name == "ranging/measure" || name == "ranging/filtering") continue;
    if (snap.stage_totals[i].count == 0) continue;
    stages.emplace_back(name, snap.stage_totals[i].total_ns);
    attributed_total_ns += snap.stage_totals[i].total_ns;
  }
  std::sort(stages.begin(), stages.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  const double attribution =
      snap.stage_total_ns("ranging/measure") > 0
          ? static_cast<double>(attributed_total_ns) /
                static_cast<double>(snap.stage_total_ns("ranging/measure"))
          : 0.0;

  // --- Disabled per-span cost, then the campaign-level bound. A tight loop
  // over RESLOC_SPAN with telemetry off: the SpanScope destructor is out of
  // line, so the compiler cannot elide the scope even though it records
  // nothing. ---
  constexpr std::size_t kSpanLoops = 20'000'000;
  const double span_loop_s = bench::best_of(1, [] {
    for (std::size_t i = 0; i < kSpanLoops; ++i) {
      RESLOC_SPAN("bench/noop");
      g_sink = i;
    }
  });
  const double span_ns = span_loop_s * 1e9 / static_cast<double>(kSpanLoops);
  const double disabled_measure_ns =
      disabled.median * 1e9 / static_cast<double>(measures_per_run);
  const double disabled_overhead = span_ns * spans_per_measure / disabled_measure_ns;

  std::printf("survey-density fixture: uniform_n n = 100, grass campaign, %llu measures\n\n",
              static_cast<unsigned long long>(measures_per_run));
  std::printf("  e2e telemetry off        %8.3f s\n", disabled.median);
  std::printf("  e2e telemetry on         %8.3f s   (spans + counters + trace events)\n",
              enabled.median);
  std::printf("  enabled overhead         %8.2f %%  (gate < 10%%)\n", overhead.median * 100.0);
  std::printf("  disabled span cost       %8.2f ns  x %.1f spans/measure\n", span_ns,
              spans_per_measure);
  std::printf("  disabled overhead bound  %8.3f %%  (gate < 2%%)\n", disabled_overhead * 100.0);
  std::printf("  measure stage budget     %8.2f us/measure (enabled run)\n", measure_ns / 1e3);
  std::printf("  stage attribution        %8.1f %%  of measure time in named kernel stages\n"
              "                                       (all ranging/* sub-spans; gate >= 90%%)\n",
              attribution * 100.0);
  for (const auto& [name, total_ns] : stages) {
    std::printf("    %-30s %8.2f us/measure\n", name.c_str(),
                static_cast<double>(total_ns) / static_cast<double>(measures) / 1e3);
  }

  bench::Json stage_us = bench::Json::object();
  for (const auto& [name, total_ns] : stages) {
    stage_us.set(name, static_cast<double>(total_ns) / static_cast<double>(measures) / 1e3);
  }
  stage_us.set("ranging/filtering",
               static_cast<double>(snap.stage_total_ns("ranging/filtering")) /
                   static_cast<double>(measures) / 1e3);
  const bool written =
      bench::record("bench_obs_overhead")
          .set("fixture", bench::Json::object()
                              .set("scenario", "uniform_n")
                              .set("n", 100)
                              .set("campaign", "grass")
                              .set("measures", measures_per_run))
          .set("off_on_pairs", kPairs)
          .set("e2e_disabled_s", disabled)
          .set("e2e_enabled_s", enabled)
          .set("enabled_overhead_fraction", overhead)
          .set("disabled_span_cost_ns", span_ns)
          .set("spans_per_measure", spans_per_measure)
          .set("disabled_overhead_fraction", disabled_overhead)
          .set("measure_us_per_pair_enabled", measure_ns / 1e3)
          .set("stage_us_per_measure", stage_us)
          .set("measure_stage_attribution", attribution)
          .set("bench_wall_s", bench::now_s() - bench_start_s)
          .write(json_path);
  return bench::exit_code(written, {{"disabled overhead < 2%", disabled_overhead < 0.02},
                                    {"enabled overhead < 10%", overhead.median < 0.10},
                                    {"stage attribution >= 90%", attribution >= 0.90}});
}
