// Reference acoustic campaigns.
//
// sim::run_field_experiment finds the in-range pairs by spatial-grid culling
// and ranges each pair through the block-DSP measure path. These run the
// very same turns (sim/campaign_turns.hpp) with one of the two replaced by
// the implementation it superseded, so tests require byte-identical
// campaign output and the ratio benches time production against them. Test
// and bench code only.
#pragma once

#include "core/types.hpp"
#include "math/rng.hpp"
#include "sim/field_experiment.hpp"

namespace resloc::reference {

/// run_field_experiment with the seed's O(n^2) front end: the full n x n
/// shadowing matrix, filled from the same per-link substreams, and an
/// all-pairs receiver scan per turn with the inclusive d <= cutoff test.
sim::FieldExperimentData run_field_experiment_dense(const core::Deployment& deployment,
                                                    const sim::FieldExperimentConfig& config,
                                                    math::Rng& rng);

/// run_field_experiment with every pair ranged by measure_per_sample
/// (reference/ranging.hpp) instead of the block kernels.
sim::FieldExperimentData run_field_experiment_per_sample(
    const core::Deployment& deployment, const sim::FieldExperimentConfig& config,
    math::Rng& rng);

}  // namespace resloc::reference
