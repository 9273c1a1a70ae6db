#include "core/xl.h"

#include <algorithm>
#include <unordered_set>

#include "anf/monomial_store.h"
#include "core/linearize.h"

namespace bosphorus::core {

using anf::MonoId;
using anf::Monomial;
using anf::Polynomial;
using anf::Var;

namespace {

/// Multiplier monomials of degree 1..max_degree over `vars`, in ascending
/// deg-lex order, enumerated LAZILY: a multiplier is only constructed
/// (and thus interned into the process-global store) the first time some
/// source polynomial actually reaches it, so a budget that stops the
/// expansion after a few products never pays for -- or permanently
/// interns -- the O(|vars|^degree) tail. Multipliers already produced are
/// cached as ids and replayed for free for the later source polynomials.
class Multipliers {
public:
    Multipliers(const std::vector<Var>& vars, unsigned max_degree)
        : vars_(vars), max_degree_(std::min(max_degree, 3u)) {}

    /// Invoke fn(multiplier) in ascending deg-lex order until fn returns
    /// false or the multipliers run out.
    template <typename Fn>
    void for_each(Fn&& fn) {
        for (size_t i = 0;; ++i) {
            if (i == cache_.size() && !advance()) return;
            if (!fn(cache_[i])) return;
        }
    }

private:
    /// Generate the next multiplier into the cache. False when exhausted.
    bool advance() {
        const size_t n = vars_.size();
        while (deg_ <= max_degree_) {
            switch (deg_) {
                case 1:
                    if (i_ < n) {
                        cache_.push_back(Monomial(vars_[i_++]));
                        return true;
                    }
                    break;
                case 2:
                    if (i_ + 1 < n) {
                        cache_.push_back(Monomial(
                            std::vector<Var>{vars_[i_], vars_[j_]}));
                        if (++j_ >= n) j_ = ++i_ + 1;
                        return true;
                    }
                    break;
                case 3:  // XL beyond D=3 explodes; the paper uses D=1.
                    if (i_ + 2 < n) {
                        cache_.push_back(Monomial(std::vector<Var>{
                            vars_[i_], vars_[j_], vars_[k_]}));
                        if (++k_ >= n) {
                            if (++j_ + 1 >= n) j_ = ++i_ + 1;
                            k_ = j_ + 1;
                        }
                        return true;
                    }
                    break;
            }
            ++deg_;
            i_ = 0;
            j_ = 1;
            k_ = 2;
        }
        return false;
    }

    const std::vector<Var>& vars_;
    unsigned max_degree_;
    std::vector<Monomial> cache_;  // interned ids, in generation order
    unsigned deg_ = 1;
    size_t i_ = 0, j_ = 1, k_ = 2;
};

}  // namespace

std::vector<Polynomial> run_xl(const std::vector<Polynomial>& system,
                               const XlConfig& cfg, Rng& rng, XlStats* stats,
                               const runtime::CancellationToken& cancel) {
    if (system.empty() || cancel.cancelled()) return {};

    const size_t sample_budget = size_t{1} << std::min(cfg.m_budget, 48u);
    const size_t expand_budget = size_t{1}
                                 << std::min(cfg.m_budget + cfg.delta_m, 52u);

    // 1. Uniform subsample to ~2^M linearised size.
    const std::vector<size_t> chosen = subsample(system, sample_budget, rng);
    std::vector<Polynomial> sampled;
    sampled.reserve(chosen.size());
    for (size_t idx : chosen) sampled.push_back(system[idx]);
    // Ascending degree order for the expansion pass.
    std::stable_sort(sampled.begin(), sampled.end(),
                     [](const Polynomial& a, const Polynomial& b) {
                         return a.degree() < b.degree();
                     });

    // Variables of the sampled subsystem are the multiplier alphabet.
    std::vector<Var> vars;
    {
        std::unordered_set<Var> seen;
        for (const auto& p : sampled)
            for (Var v : p.variables()) seen.insert(v);
        vars.assign(seen.begin(), seen.end());
        std::sort(vars.begin(), vars.end());
    }

    // Multipliers are enumerated lazily (ascending deg-lex, as before)
    // and the ones actually reached are cached as interned ids, shared
    // across every source polynomial.
    Multipliers muls(vars, cfg.degree);

    // 2. Incremental expansion, capped at ~2^(M + deltaM) bits. Distinct
    // monomials are tracked as a set of 4-byte ids (the old set hashed a
    // variable vector per insert).
    std::vector<Polynomial> expanded = sampled;
    std::unordered_set<MonoId> monos;
    for (const auto& p : expanded)
        for (const auto& m : p.monomials()) monos.insert(m.id());

    auto size_ok = [&]() {
        return expanded.size() * std::max<size_t>(monos.size(), 1) <
               expand_budget;
    };

    for (const auto& p : sampled) {
        if (!size_ok()) break;
        // Cancellation boundary: one source polynomial's multiplier batch.
        if (cancel.cancelled()) return {};
        bool keep_going = true;
        muls.for_each([&](const Monomial& mul) {
            Polynomial prod = p * mul;
            if (!prod.is_zero()) {
                for (const auto& m : prod.monomials()) monos.insert(m.id());
                expanded.push_back(std::move(prod));
            }
            keep_going = size_ok();
            return keep_going;
        });
        if (!keep_going) break;
    }

    // 3. Structured elimination on the sparse linearisation; a cancel
    // inside it discards the matrix.
    if (cancel.cancelled()) return {};
    const size_t expanded_rows = expanded.size();
    Linearization lin = linearize(expanded);
    expanded = {};
    const size_t rank = reduce(lin, cfg.use_m4r, cancel);
    if (cancel.cancelled()) return {};

    std::vector<Polynomial> facts = extract_facts(lin);

    if (stats) {
        stats->sampled_equations = sampled.size();
        stats->expanded_rows = expanded_rows;
        stats->columns = lin.cols();
        stats->rank = rank;
        stats->facts = facts.size();
    }
    return facts;
}

}  // namespace bosphorus::core
