// eXtended Linearization (XL) -- paper section II-B.
//
// The system is uniformly subsampled to linearised size ~2^M, expanded by
// multiplying equations (in ascending degree order) with monomials of degree
// up to D, capped at total size ~2^(M + deltaM), then reduced to row
// echelon form on the sparse linearisation (core::reduce). Rows of the reduced system that are linear equations or
// monomial facts (x_{i1}...x_{ip} + 1) are retained as learnt facts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "anf/polynomial.h"
#include "runtime/cancellation.h"
#include "util/rng.h"

namespace bosphorus::core {

struct XlConfig {
    unsigned degree = 1;   ///< D: maximal multiplier monomial degree
    unsigned m_budget = 30;   ///< M: subsample until m'*n' >= 2^M
    unsigned delta_m = 4;  ///< deltaM: expansion cap 2^(M + deltaM)
    /// Reduce the dense Schur block of the structured elimination with
    /// the Method of Four Russians (rref_m4r) instead of plain
    /// Gauss-Jordan. Identical results; off forces plain elimination of
    /// that block (see core::reduce).
    bool use_m4r = true;
};

struct XlStats {
    size_t sampled_equations = 0;
    size_t expanded_rows = 0;
    size_t columns = 0;
    size_t rank = 0;
    size_t facts = 0;
};

/// Run one XL pass. Returns the learnt facts (possibly including the
/// constant-1 polynomial, meaning the system is UNSAT). `cancel` is polled
/// at expansion-batch boundaries and inside the elimination; a run
/// cancelled before the elimination finishes returns no facts.
std::vector<anf::Polynomial> run_xl(
    const std::vector<anf::Polynomial>& system, const XlConfig& cfg, Rng& rng,
    XlStats* stats = nullptr,
    const runtime::CancellationToken& cancel = {});

}  // namespace bosphorus::core
