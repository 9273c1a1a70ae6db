#include "core/elimlin.h"

#include <algorithm>
#include <unordered_set>

#include "core/linearize.h"

namespace bosphorus::core {

using anf::Polynomial;
using anf::Var;

std::vector<Polynomial> run_elimlin(const std::vector<Polynomial>& system,
                                    const ElimLinConfig& cfg, Rng& rng,
                                    ElimLinStats* stats,
                                    const runtime::CancellationToken& cancel) {
    if (system.empty() || cancel.cancelled()) return {};

    const size_t sample_budget = size_t{1} << std::min(cfg.m_budget, 48u);
    const std::vector<size_t> chosen = subsample(system, sample_budget, rng);
    std::vector<Polynomial> work;
    work.reserve(chosen.size());
    for (size_t idx : chosen) work.push_back(system[idx]);

    std::vector<Polynomial> facts;
    // Dedup on the interned representation: PolynomialHash folds the
    // per-term hashes cached in the MonomialStore, so an insert costs one
    // multiply-xor per 4-byte id instead of re-hashing variable vectors.
    std::unordered_set<Polynomial, anf::PolynomialHash> fact_set;
    size_t iterations = 0;
    size_t eliminated = 0;

    auto add_fact = [&](const Polynomial& p) {
        if (p.is_zero()) return;
        if (fact_set.insert(p).second) facts.push_back(p);
    };

    for (; iterations < cfg.max_iterations; ++iterations) {
        // Cancellation boundary: one eliminate-substitute round.
        if (cancel.cancelled()) break;
        // Step (1): structured elimination on the sparse linearisation;
        // a cancel inside it ends the run like one at the round boundary.
        Linearization lin = linearize(work);
        reduce(lin, cfg.use_m4r, cancel);
        if (cancel.cancelled()) break;

        // Step (2): gather linear equations from the reduced rows.
        std::vector<Polynomial> linear;
        std::vector<Polynomial> nonlinear;
        bool contradiction = false;
        for (size_t r = 0; r < lin.rows(); ++r) {
            if (lin.row_is_one(r)) {
                contradiction = true;
                break;
            }
            (lin.row_is_linear(r) ? linear : nonlinear)
                .push_back(row_to_polynomial(lin, r));
        }
        if (contradiction) {
            facts.clear();
            facts.push_back(Polynomial::constant(true));
            break;
        }
        if (linear.empty()) break;
        for (const auto& l : linear) add_fact(l);

        // Step (3): eliminate one variable per linear equation by
        // substitution into the linear-free remainder.
        work = std::move(nonlinear);
        std::vector<Polynomial> pending(linear.begin(), linear.end());
        for (size_t li = 0; li < pending.size(); ++li) {
            if (cancel.cancelled()) break;  // substitution sub-boundary
            Polynomial l = pending[li];
            if (l.is_zero()) continue;
            if (l.is_one()) {
                facts.clear();
                facts.push_back(Polynomial::constant(true));
                return facts;
            }
            if (l.degree() < 1) continue;
            // Count occurrences of each candidate variable in the remaining
            // system; pick the rarest (paper's heuristic).
            std::vector<Var> cand = l.variables();
            Var best = cand[0];
            size_t best_count = SIZE_MAX;
            for (Var v : cand) {
                size_t count = 0;
                for (const auto& q : work) count += q.contains_var(v);
                for (size_t lj = li + 1; lj < pending.size(); ++lj)
                    count += pending[lj].contains_var(v);
                if (count < best_count) {
                    best = v;
                    best_count = count;
                }
            }
            // l = best + rest  =>  best := rest.
            Polynomial rest = l + Polynomial::variable(best);
            for (auto& q : work) {
                if (q.contains_var(best)) q = q.substitute(best, rest);
            }
            for (size_t lj = li + 1; lj < pending.size(); ++lj) {
                if (pending[lj].contains_var(best))
                    pending[lj] = pending[lj].substitute(best, rest);
            }
            ++eliminated;
        }
        // Drop zero polynomials created by substitution.
        work.erase(std::remove_if(work.begin(), work.end(),
                                  [](const Polynomial& p) {
                                      return p.is_zero();
                                  }),
                   work.end());
        if (work.empty()) break;
    }

    if (stats) {
        stats->sampled_equations = chosen.size();
        stats->iterations = iterations;
        stats->eliminated_vars = eliminated;
        stats->facts = facts.size();
    }
    return facts;
}

}  // namespace bosphorus::core
