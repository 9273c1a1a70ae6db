#include "core/linearize.h"

#include <algorithm>
#include <unordered_set>

#include "anf/monomial_store.h"

namespace bosphorus::core {

using anf::MonoId;
using anf::Monomial;
using anf::MonomialStore;
using anf::Polynomial;

Linearization linearize(const std::vector<Polynomial>& polys) {
    Linearization lin;

    // Gather every term, sort descending deg-lex, dedup: memory stays
    // O(system terms) however large the global interned vocabulary has
    // grown (a flat vector indexed by raw MonoId would be O(max id) --
    // unbounded in a long-lived Session), and the sort compares 4-byte
    // ids, not variable vectors.
    size_t total_terms = 0;
    for (const auto& p : polys) total_terms += p.size();
    lin.col_monomial.reserve(total_terms);
    for (const auto& p : polys) {
        for (const auto& m : p.monomials()) lin.col_monomial.push_back(m);
    }

    // Descending deg-lex: highest-degree monomials in the leftmost
    // columns. When the term list is a sizeable slice of the interned
    // vocabulary, compare by the store's precomputed dense deg-lex ranks
    // (O(1) per compare); otherwise plain content compares win -- both
    // produce the identical order.
    MonomialStore& store = MonomialStore::global();
    if (lin.col_monomial.size() * 16 >= store.size()) {
        const auto ranks = store.ranks();
        std::sort(lin.col_monomial.begin(), lin.col_monomial.end(),
                  [&ranks](const Monomial& a, const Monomial& b) {
                      return (*ranks)[a.id()] > (*ranks)[b.id()];
                  });
    } else {
        std::sort(lin.col_monomial.begin(), lin.col_monomial.end(),
                  [](const Monomial& a, const Monomial& b) { return b < a; });
    }
    lin.col_monomial.erase(
        std::unique(lin.col_monomial.begin(), lin.col_monomial.end()),
        lin.col_monomial.end());

    lin.col_index.reserve(lin.col_monomial.size());
    for (size_t c = 0; c < lin.col_monomial.size(); ++c)
        lin.col_index.emplace(lin.col_monomial[c].id(),
                              static_cast<uint32_t>(c));

    lin.matrix = gf2::SparseMatrix(lin.col_monomial.size());
    for (const auto& p : polys) {
        // Terms are stored ascending deg-lex, so walking them backwards
        // yields the row's columns in ascending order.
        gf2::SparseMatrix::Row row;
        row.reserve(p.size());
        for (auto it = p.monomials().rbegin(); it != p.monomials().rend(); ++it)
            row.push_back(lin.col_index.find(it->id())->second);
        lin.matrix.add_row(std::move(row));
    }
    return lin;
}

size_t reduce(Linearization& lin, bool use_m4r,
              const runtime::CancellationToken& cancel) {
    return lin.matrix.rref(use_m4r, cancel);
}

Polynomial row_to_polynomial(const Linearization& lin, size_t row) {
    std::vector<Monomial> monos;
    monos.reserve(lin.matrix.row_popcount(row));
    for (uint32_t c : lin.matrix.row(row)) monos.push_back(lin.col_monomial[c]);
    return Polynomial(std::move(monos));
}

std::vector<Polynomial> extract_facts(const Linearization& lin) {
    std::vector<Polynomial> facts;
    for (size_t r = 0; r < lin.rows(); ++r) {
        // 1 = 0: contradiction -- dominates everything else.
        if (lin.row_is_one(r)) return {Polynomial::constant(true)};
        if (lin.row_is_fact(r)) facts.push_back(row_to_polynomial(lin, r));
    }
    return facts;
}

size_t linearized_size(const std::vector<Polynomial>& polys) {
    std::unordered_set<MonoId> monos;
    for (const auto& p : polys)
        for (const auto& m : p.monomials()) monos.insert(m.id());
    return polys.size() * monos.size();
}

std::vector<size_t> subsample(const std::vector<Polynomial>& polys,
                              size_t budget, Rng& rng) {
    std::vector<size_t> order(polys.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);

    std::unordered_set<MonoId> monos;
    std::vector<size_t> chosen;
    for (size_t idx : order) {
        chosen.push_back(idx);
        for (const auto& m : polys[idx].monomials()) monos.insert(m.id());
        if (chosen.size() * monos.size() >= budget) break;
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

}  // namespace bosphorus::core
