// Ranging walkthrough: one source/receiver pair swept across distances and
// environments, with the detection internals printed -- what the tone
// detector accumulates, where detect-signal fires, and what the TDoA
// arithmetic concludes.
#include <cstdio>

#include "ranging/ranging_service.hpp"
#include "sim/scenarios.hpp"

int main() {
  using namespace resloc;
  std::puts("== acoustic ranging walkthrough ==");

  for (const bool grass : {true, false}) {
    auto config = grass ? sim::grass_refined_ranging() : sim::urban_refined_ranging();
    const ranging::RangingService service(config);
    std::printf("\n--- environment: %s (T=%d, k=%d of %d) ---\n",
                config.environment.name.c_str(), config.detection.threshold,
                config.detection.min_detections, config.detection.window);

    math::Rng rng(42);
    ranging::RangingScratch scratch;
    for (double distance : {5.0, 10.0, 15.0, 20.0}) {
      const auto attempt = service.measure(distance, acoustics::SpeakerUnit{},
                                           acoustics::MicUnit{}, rng, scratch);
      if (!attempt.distance_m) {
        std::printf("d=%5.1f m : no detection (out of range or too noisy)\n", distance);
        continue;
      }
      // Visualize the accumulated counters around the detection.
      const std::vector<std::uint8_t>& counters = scratch.accumulator.samples();
      const int idx = attempt.detection_index;
      std::printf("d=%5.1f m : detected at sample %4d -> %.2f m (error %+.2f m)\n", distance,
                  idx, *attempt.distance_m, *attempt.distance_m - distance);
      std::printf("            counters near onset: ");
      for (int i = std::max(0, idx - 6); i < idx + 10 && i < static_cast<int>(counters.size());
           ++i) {
        std::printf("%x", counters[static_cast<std::size_t>(i)]);
      }
      std::printf("  (rejected candidates: %d)\n", attempt.rejected_detections);
    }
  }

  std::puts("\ncounters are 4-bit accumulations over 10 chirps; detection needs the\n"
            "count to reach T in k of m consecutive samples, preceded by silence.");
  return 0;
}
