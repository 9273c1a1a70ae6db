#include "core/groebner.h"

#include <algorithm>
#include <unordered_set>

#include "anf/monomial_store.h"
#include "core/linearize.h"

namespace bosphorus::core {

using anf::Monomial;
using anf::MonomialStore;
using anf::Polynomial;
using anf::Var;

namespace {

/// lcm of two monomials in the Boolean ring = union of variable sets.
/// Goes through the store's memoised product, so the repeated pairings of
/// the same leading monomials across rounds are table lookups.
Monomial lcm(const Monomial& a, const Monomial& b) { return a * b; }

/// Cofactor u with u * m == target (target's vars minus m's vars),
/// computed id-to-id in the store.
Monomial cofactor(const Monomial& target, const Monomial& m) {
    return Monomial::from_id(
        MonomialStore::global().quotient(target.id(), m.id()));
}

}  // namespace

std::vector<Polynomial> run_groebner(const std::vector<Polynomial>& system,
                                     const GroebnerConfig& cfg, Rng& rng,
                                     GroebnerStats* stats,
                                     const runtime::CancellationToken& cancel) {
    if (system.empty() || cancel.cancelled()) return {};

    // Subsample like XL/ElimLin so huge systems stay affordable.
    const size_t budget = size_t{1} << std::min(cfg.m_budget, 48u);
    std::vector<Polynomial> basis;
    for (size_t idx : subsample(system, budget, rng)) {
        if (!system[idx].is_zero()) basis.push_back(system[idx]);
    }
    if (basis.empty()) return {};

    std::unordered_set<Polynomial, anf::PolynomialHash> known(basis.begin(),
                                                              basis.end());
    std::vector<Polynomial> facts;
    std::unordered_set<Polynomial, anf::PolynomialHash> fact_set;

    size_t spairs_total = 0;
    size_t round = 0;
    for (; round < cfg.rounds; ++round) {
        // Cancellation boundary: one F4 round.
        if (cancel.cancelled()) break;
        // Form S-polynomials of basis pairs under the degree bound.
        // spoly(f, g) = (lcm / lm(f)) f + (lcm / lm(g)) g cancels the
        // leading terms; a nonzero remainder after reduction is new
        // information about the ideal.
        std::vector<Polynomial> batch = basis;
        size_t pairs = 0;
        for (size_t i = 0; i < basis.size() && pairs < cfg.max_pairs; ++i) {
            const Monomial& lmi = basis[i].leading_monomial();
            for (size_t j = i + 1;
                 j < basis.size() && pairs < cfg.max_pairs; ++j) {
                const Monomial& lmj = basis[j].leading_monomial();
                const Monomial l = lcm(lmi, lmj);
                if (l.degree() > cfg.max_pair_degree) continue;
                // Buchberger's first criterion: coprime leading monomials
                // reduce to zero (in a commutative ring; in the Boolean
                // ring the field equations can still interact, but the
                // pair is overwhelmingly likely useless -- skip).
                if (l.degree() == lmi.degree() + lmj.degree()) continue;
                Polynomial s = basis[i] * cofactor(l, lmi);
                s += basis[j] * cofactor(l, lmj);
                if (s.is_zero()) continue;
                batch.push_back(std::move(s));
                ++pairs;
            }
        }
        spairs_total += pairs;
        if (pairs == 0) break;

        // F4-style simultaneous reduction: one structured elimination
        // over the linearisation of basis + S-polynomials. A cancel inside
        // it ends the run like one at the round boundary.
        Linearization lin = linearize(batch);
        reduce(lin, cfg.use_m4r, cancel);
        if (cancel.cancelled()) break;

        bool contradiction = false;
        std::vector<Polynomial> next_basis;
        size_t fresh = 0;
        for (size_t r = 0; r < lin.rows(); ++r) {
            if (lin.row_is_one(r)) {
                contradiction = true;
                break;
            }
            Polynomial p = row_to_polynomial(lin, r);
            if (lin.row_is_fact(r) && fact_set.insert(p).second)
                facts.push_back(p);
            if (!known.count(p)) {
                known.insert(p);
                ++fresh;
            }
            if (next_basis.size() < cfg.max_basis)
                next_basis.push_back(std::move(p));
        }
        if (contradiction) {
            facts.clear();
            facts.push_back(Polynomial::constant(true));
            ++round;
            break;
        }
        basis = std::move(next_basis);
        if (fresh == 0) {
            ++round;
            break;  // fixed point
        }
    }

    if (stats) {
        stats->rounds_run = round;
        stats->spairs_formed = spairs_total;
        stats->basis_size = basis.size();
        stats->facts = facts.size();
    }
    return facts;
}

}  // namespace bosphorus::core
