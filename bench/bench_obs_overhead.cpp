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
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "eval/aggregate.hpp"
#include "math/rng.hpp"
#include "obs/telemetry.hpp"
#include "sim/field_experiment.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

volatile std::size_t g_sink = 0;

/// Disabled-mode span cost: a tight loop over RESLOC_SPAN with telemetry
/// off. The SpanScope destructor is out of line, so the compiler cannot
/// elide the scope even though it records nothing.
double disabled_span_cost_ns(std::size_t iterations) {
  const double t0 = now_s();
  for (std::size_t i = 0; i < iterations; ++i) {
    RESLOC_SPAN("bench/noop");
    g_sink = i;
  }
  return (now_s() - t0) * 1e9 / static_cast<double>(iterations);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  bench::print_banner("Telemetry overhead on the survey-density campaign");

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
  const int reps = 9;

  // --- End to end: telemetry off (the default production mode) vs fully on
  // (counters + stage totals + retained span events, the --trace
  // configuration). The overhead is a few percent of a ~0.2 s campaign, well
  // under this box's wall-clock noise, so the estimator has to be noise-
  // hardened: off and on samples are interleaved (each timing 2 campaigns),
  // the off/on ratio is formed per adjacent pair -- machine-speed drift
  // hits both halves of a pair alike and cancels in the ratio, where timing
  // all-off-then-all-on lets a drift between the phases masquerade as
  // overhead several times the real effect -- and the reported overhead is
  // the median ratio across pairs, immune to a co-tenant burst landing in
  // any one sample.
  constexpr int kCampaignsPerSample = 2;
  obs::reset();
  std::vector<double> disabled_samples, enabled_samples, ratios;
  for (int r = 0; r < reps; ++r) {
    obs::set_enabled(false);
    obs::set_capture_spans(false);
    double t0 = now_s();
    for (int c = 0; c < kCampaignsPerSample; ++c) campaign();
    const double d = now_s() - t0;
    obs::set_enabled(true);
    obs::set_capture_spans(true);
    t0 = now_s();
    for (int c = 0; c < kCampaignsPerSample; ++c) campaign();
    const double e = now_s() - t0;
    disabled_samples.push_back(d);
    enabled_samples.push_back(e);
    ratios.push_back(e / d);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double disabled_s = median(disabled_samples) / kCampaignsPerSample;
  const double enabled_s = median(enabled_samples) / kCampaignsPerSample;
  const double enabled_overhead = median(ratios) - 1.0;

  // The instrumented runs also yield the stage attribution and the
  // spans-per-measure ratio (counts are deterministic; reps just repeat them).
  const obs::TelemetrySnapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::set_capture_spans(false);

  // The counters accumulated over every enabled campaign; per-measure stage
  // averages divide by the accumulated count, per-campaign quantities by the
  // per-run count.
  const std::uint64_t measures = snap.counter(obs::Counter::kMeasureCalls);
  const std::uint64_t measures_per_run =
      measures / static_cast<std::uint64_t>(reps * kCampaignsPerSample);
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

  // --- Disabled per-span cost, then the campaign-level bound. ---
  const double span_ns = disabled_span_cost_ns(20'000'000);
  const double disabled_measure_ns =
      static_cast<double>(disabled_s) * 1e9 / static_cast<double>(measures_per_run);
  const double disabled_overhead = span_ns * spans_per_measure / disabled_measure_ns;

  std::printf("survey-density fixture: uniform_n n = 100, grass campaign, %llu measures\n\n",
              static_cast<unsigned long long>(measures_per_run));
  std::printf("  e2e telemetry off        %8.3f s\n", disabled_s);
  std::printf("  e2e telemetry on         %8.3f s   (spans + counters + trace events)\n",
              enabled_s);
  std::printf("  enabled overhead         %8.2f %%  (gate < 10%%)\n", enabled_overhead * 100.0);
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

  // --- JSON record ---
  const auto v = [](double x) { return resloc::eval::format_value(x); };
  std::string json = "{\n";
  json += "  \"bench\": \"bench_obs_overhead\",\n";
  json += "  \"fixture\": {\"scenario\": \"uniform_n\", \"n\": 100, "
          "\"campaign\": \"grass\", \"measures\": " +
          std::to_string(measures_per_run) + "},\n";
  json += "  \"e2e_disabled_s\": " + v(disabled_s) + ",\n";
  json += "  \"e2e_enabled_s\": " + v(enabled_s) + ",\n";
  json += "  \"enabled_overhead_fraction\": " + v(enabled_overhead) + ",\n";
  json += "  \"disabled_span_cost_ns\": " + v(span_ns) + ",\n";
  json += "  \"spans_per_measure\": " + v(spans_per_measure) + ",\n";
  json += "  \"disabled_overhead_fraction\": " + v(disabled_overhead) + ",\n";
  json += "  \"measure_us_per_pair_enabled\": " + v(measure_ns / 1e3) + ",\n";
  json += "  \"stage_us_per_measure\": {";
  bool first = true;
  for (const auto& [name, total_ns] : stages) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": " +
            v(static_cast<double>(total_ns) / static_cast<double>(measures) / 1e3);
  }
  json += first ? "" : ", ";
  json += "\"ranging/filtering\": " +
          v(static_cast<double>(snap.stage_total_ns("ranging/filtering")) /
            static_cast<double>(measures) / 1e3);
  json += "},\n";
  json += "  \"measure_stage_attribution\": " + v(attribution) + ",\n";
  json += "  \"gates\": {\"disabled_overhead_max\": 0.02, \"enabled_overhead_max\": 0.10, "
          "\"attribution_min\": 0.90}\n";
  json += "}\n";
  if (!resloc::eval::write_text_file(json_path, json)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nbench record: %s\n", json_path.c_str());

  const bool ok =
      disabled_overhead < 0.02 && enabled_overhead < 0.10 && attribution >= 0.90;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: disabled overhead %.3f%% (< 2%%), enabled overhead %.2f%% (< 10%%), "
                 "attribution %.1f%% (>= 90%%)\n",
                 disabled_overhead * 100.0, enabled_overhead * 100.0, attribution * 100.0);
  }
  return ok ? 0 : 1;
}
