#include "xl_probe.h"

#include <algorithm>
#include <unordered_set>

#include "anf/monomial_store.h"
#include "core/linearize.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

using bosphorus::Rng;
using bosphorus::Timer;
using bosphorus::anf::MonoId;
using bosphorus::anf::Monomial;
using bosphorus::anf::Polynomial;
using bosphorus::anf::Var;
namespace core = bosphorus::core;

namespace {

/// Multiplier monomials of degree 1..min(D, 3) over `vars` in ascending
/// deg-lex order -- the order core::run_xl enumerates them in.
std::vector<Monomial> multipliers(const std::vector<Var>& vars,
                                  unsigned degree) {
    std::vector<Monomial> out;
    const size_t n = vars.size();
    const unsigned d = std::min(degree, 3u);
    for (size_t i = 0; d >= 1 && i < n; ++i) out.emplace_back(vars[i]);
    for (size_t i = 0; d >= 2 && i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            out.emplace_back(std::vector<Var>{vars[i], vars[j]});
    for (size_t i = 0; d >= 3 && i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            for (size_t k = j + 1; k < n; ++k)
                out.emplace_back(std::vector<Var>{vars[i], vars[j], vars[k]});
    return out;
}

}  // namespace

std::string probe_xl(const std::vector<Polynomial>& system,
                     const core::XlConfig& cfg, const Rng& start,
                     XlProbe* out) {
    XlProbe& p = *out;
    p = XlProbe{};
    const size_t sample_budget = size_t{1} << std::min(cfg.m_budget, 48u);
    const size_t expand_budget = size_t{1}
                                 << std::min(cfg.m_budget + cfg.delta_m, 52u);
    Rng rng = start;

    Timer t;
    std::vector<Polynomial> sampled;
    for (size_t idx : core::subsample(system, sample_budget, rng))
        sampled.push_back(system[idx]);
    std::stable_sort(sampled.begin(), sampled.end(),
                     [](const Polynomial& a, const Polynomial& b) {
                         return a.degree() < b.degree();
                     });
    std::vector<Var> vars;
    {
        std::unordered_set<Var> seen;
        for (const auto& q : sampled)
            for (Var v : q.variables()) seen.insert(v);
        vars.assign(seen.begin(), seen.end());
        std::sort(vars.begin(), vars.end());
    }
    std::vector<Polynomial> expanded = sampled;
    std::unordered_set<MonoId> monos;
    for (const auto& q : expanded)
        for (const auto& m : q.monomials()) monos.insert(m.id());
    auto size_ok = [&] {
        return expanded.size() * std::max<size_t>(monos.size(), 1) <
               expand_budget;
    };
    const std::vector<Monomial> muls = multipliers(vars, cfg.degree);
    bool keep_going = true;
    for (const auto& q : sampled) {
        if (!keep_going || !size_ok()) break;
        for (const Monomial& mul : muls) {
            Polynomial prod = q * mul;
            if (!prod.is_zero()) {
                for (const auto& m : prod.monomials()) monos.insert(m.id());
                expanded.push_back(std::move(prod));
            }
            if (!(keep_going = size_ok())) break;
        }
    }
    p.expand_s = t.seconds();

    {  // scoped: the matrix is freed before run_xl builds its own
        t.restart();
        core::Linearization lin = core::linearize(expanded);
        p.linearize_s = t.seconds();
        p.rows = lin.rows();
        p.cols = lin.cols();
        for (size_t r = 0; r < lin.rows(); ++r)
            p.set_bits += lin.matrix.row_popcount(r);
        p.bytes = double(p.rows) * double((p.cols + 63) / 64) * 8.0;

        t.restart();
        p.rank = core::reduce(lin, cfg.use_m4r);
        p.reduce_s = t.seconds();

        t.restart();
        p.facts = core::extract_facts(lin).size();
        p.extract_s = t.seconds();
    }
    expanded = {};

    Rng engine_rng = start;
    core::XlStats st;
    core::run_xl(system, cfg, engine_rng, &st);
    std::string diff;
    auto check = [&](const char* what, size_t probe, size_t engine) {
        if (probe != engine)
            diff += std::string(what) + " " + std::to_string(probe) +
                    " != " + std::to_string(engine) + "; ";
    };
    check("rows", p.rows, st.expanded_rows);
    check("cols", p.cols, st.columns);
    check("rank", p.rank, st.rank);
    check("facts", p.facts, st.facts);
    return diff;
}

}  // namespace perfbench
