// Reproduces Table I: the XL worked example on {x1x2 + x1 + 1, x2x3 + x3}.
//
// Prints (a) the degree-1 expanded linearised system and (b) the system
// after Gauss-Jordan elimination, then the facts Bosphorus retains --
// expected: x1 + 1, x2, x3 (the last three rows of Table I(b)).
#include <algorithm>
#include <cstdio>

#include "anf/anf_parser.h"
#include "core/linearize.h"
#include "core/xl.h"

using namespace bosphorus;

namespace {

void print_matrix(const core::Linearization& lin, const char* title) {
    std::printf("%s\n", title);
    std::printf("%-12s", "");
    for (const auto& m : lin.col_monomial) {
        std::string s;
        if (m.is_one()) {
            s = "1";
        } else {
            for (anf::Var v : m.vars()) {
                if (!s.empty()) s += "*";
                s += "x" + std::to_string(v + 1);
            }
        }
        std::printf("%-9s", s.c_str());
    }
    std::printf("\n");
    for (size_t r = 0; r < lin.rows(); ++r) {
        if (lin.matrix.row_is_zero(r)) continue;
        std::printf("  row %-5zu ", r);
        const auto& row = lin.matrix.row(r);
        for (size_t c = 0; c < lin.cols(); ++c) {
            const bool set = std::binary_search(row.begin(), row.end(), c);
            std::printf("%-9s", set ? "1" : "");
        }
        std::printf("\n");
    }
}

}  // namespace

int main() {
    std::printf("=== Table I: eXtended Linearization worked example ===\n");
    const auto sys =
        anf::parse_system_from_string("x1*x2 + x1 + 1\nx2*x3 + x3\n");

    // Expand by all degree-1 monomial multipliers, as in Table I(a).
    std::vector<anf::Polynomial> expanded = sys.polynomials;
    for (const auto& p : sys.polynomials) {
        for (anf::Var v = 0; v < 3; ++v) {
            const auto prod = p * anf::Monomial(v);
            if (!prod.is_zero()) expanded.push_back(prod);
        }
    }
    core::Linearization lin = core::linearize(expanded);
    print_matrix(lin, "(a) expansion by degree-1 monomials:");

    core::reduce(lin);
    print_matrix(lin, "\n(b) after Gauss-Jordan elimination:");

    const auto facts = core::extract_facts(lin);
    std::printf("\nretained facts (paper: x1 + 1, x2, x3):\n");
    for (const auto& f : facts) std::printf("  %s = 0\n", f.to_string().c_str());

    // The same result through the public XL entry point.
    core::XlConfig cfg;
    cfg.degree = 1;
    cfg.m_budget = 16;
    Rng rng(1);
    core::XlStats stats;
    const auto xl_facts = core::run_xl(sys.polynomials, cfg, rng, &stats);
    std::printf("\nrun_xl: %zu sampled, %zu expanded rows, %zu columns, rank "
                "%zu, %zu facts\n",
                stats.sampled_equations, stats.expanded_rows, stats.columns,
                stats.rank, xl_facts.size());
    return 0;
}
