// ElimLin -- paper section II-C.
//
// Iterates to fixed point: (1) reduce the linearised system to reduced row
// echelon form; (2) gather the linear equations; (3) for each linear equation,
// eliminate from the system the variable that occurs in the fewest other
// equations, by substitution. All linear equations discovered along the way
// (which are consequences of the original system, as substitution preserves
// the solution set) are returned as learnt facts.
#pragma once

#include <cstddef>
#include <vector>

#include "anf/polynomial.h"
#include "runtime/cancellation.h"
#include "util/rng.h"

namespace bosphorus::core {

struct ElimLinConfig {
    unsigned m_budget = 30;  ///< M: subsample until m'*n' >= 2^M
    unsigned max_iterations = 64;
    /// M4R for the dense Schur block of the elimination (see
    /// XlConfig::use_m4r).
    bool use_m4r = true;
};

struct ElimLinStats {
    size_t sampled_equations = 0;
    size_t iterations = 0;
    size_t eliminated_vars = 0;
    size_t facts = 0;
};

/// Run ElimLin to fixed point. `cancel` is polled at every outer
/// (eliminate-substitute) iteration boundary and inside each round's
/// elimination; a cancelled run returns the facts learnt so far -- they
/// are sound, substitution preserves the solution set.
std::vector<anf::Polynomial> run_elimlin(
    const std::vector<anf::Polynomial>& system, const ElimLinConfig& cfg,
    Rng& rng, ElimLinStats* stats = nullptr,
    const runtime::CancellationToken& cancel = {});

}  // namespace bosphorus::core
