// XL phase probe: one XL pass (core::run_xl) taken apart into its public
// phases -- subsample, degree-D expansion, core::linearize, core::reduce,
// core::extract_facts -- so each can be timed and the matrix measured.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "anf/polynomial.h"
#include "core/xl.h"
#include "util/rng.h"

namespace perfbench {

struct XlProbe {
    double expand_s = 0.0;  ///< subsample + degree-D expansion
    double linearize_s = 0.0;
    double reduce_s = 0.0;
    double extract_s = 0.0;
    size_t rows = 0;
    size_t cols = 0;
    size_t rank = 0;
    size_t set_bits = 0;  ///< ones in the linearised matrix before reduce
    double bytes = 0.0;   ///< dense matrix storage, from the shape
    size_t facts = 0;     ///< rows extract_facts kept

    double density() const {
        return rows && cols ? double(set_bits) / (double(rows) * double(cols))
                            : 0.0;
    }
};

/// Run the probe from generator state `rng`, then core::run_xl from the
/// same state and config. Returns an empty string when rows, columns,
/// rank and fact count agree with the returned core::XlStats, else what
/// differs.
std::string probe_xl(const std::vector<bosphorus::anf::Polynomial>& system,
                     const bosphorus::core::XlConfig& cfg,
                     const bosphorus::Rng& rng, XlProbe* out);

}  // namespace perfbench
