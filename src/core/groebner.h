// Degree-bounded Groebner-basis reduction as a pluggable learning step.
//
// The paper's discussion (section V) points out that new solving techniques
// "can be plugged as components into the workflow", naming Buchberger's
// algorithm explicitly: Groebner-basis preprocessing for SAT had been
// proposed before (Condrat & Kalla, TACAS 2007), and Bosphorus lets it run
// *iteratively* next to XL/ElimLin/SAT. This module implements that
// component in the F4 style (Faugere): instead of reducing one S-polynomial
// at a time, each round forms all S-polynomials up to a degree bound and
// reduces the whole batch simultaneously by eliminating on the linearised
// system -- the same structured sparse kernel XL and ElimLin use.
//
// Over the Boolean ring GF(2)[x]/(x_i^2 + x_i), multiplication by the
// S-polynomial cofactors is idempotent-aware (the Monomial type unions
// variable sets), so the field equations are built in. Facts retained are
// the same two kinds Bosphorus keeps everywhere: linear equations and
// monomial facts.
#pragma once

#include <cstddef>
#include <vector>

#include "anf/polynomial.h"
#include "runtime/cancellation.h"
#include "util/rng.h"

namespace bosphorus::core {

struct GroebnerConfig {
    unsigned max_pair_degree = 4;  ///< skip S-pairs whose lcm degree exceeds
    unsigned rounds = 3;           ///< F4 rounds per invocation
    size_t max_basis = 4096;       ///< cap on tracked basis polynomials
    size_t max_pairs = 20'000;     ///< cap on S-pairs per round
    unsigned m_budget = 20;        ///< subsample budget 2^M (like XL/ElimLin)
    /// M4R for the dense Schur block of the elimination (see
    /// XlConfig::use_m4r).
    bool use_m4r = true;
};

struct GroebnerStats {
    size_t rounds_run = 0;
    size_t spairs_formed = 0;
    size_t basis_size = 0;
    size_t facts = 0;
};

/// One invocation of the degree-bounded F4 loop. Returns learnt facts
/// (linear equations and monomial facts; the constant-1 polynomial means
/// the ideal is trivial, i.e. the system is UNSAT). `cancel` is polled at
/// every F4 round boundary and inside each round's elimination; a
/// cancelled run returns the facts found so far.
std::vector<anf::Polynomial> run_groebner(
    const std::vector<anf::Polynomial>& system, const GroebnerConfig& cfg,
    Rng& rng, GroebnerStats* stats = nullptr,
    const runtime::CancellationToken& cancel = {});

}  // namespace bosphorus::core
