// Differential tests for the structured sparse elimination
// (gf2::SparseMatrix::rref, core::reduce, core::extract_facts) against the
// dense rref_m4r oracle: identical rank and identical RREF rows, on random
// matrices and on small XL expansions of the paper's instance families.
#include <gtest/gtest.h>

#include <algorithm>

#include "cnfgen/generators.h"
#include "core/cnf_to_anf.h"
#include "core/elimlin.h"
#include "core/groebner.h"
#include "core/linearize.h"
#include "core/xl.h"
#include "crypto/aes_small.h"
#include "crypto/simon.h"
#include "gf2/gf2_matrix.h"
#include "gf2/sparse_matrix.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

using anf::Monomial;
using anf::Polynomial;
using gf2::SparseMatrix;

gf2::Matrix to_dense(const SparseMatrix& s) {
    gf2::Matrix d(s.rows(), s.cols());
    for (size_t r = 0; r < s.rows(); ++r)
        for (uint32_t c : s.row(r)) d.set(r, c, true);
    return d;
}

/// Reduce `s` with the structured kernel (both Schur-block kernels) and
/// its dense copy with rref_m4r; the two must agree row for row.
void expect_matches_oracle(const SparseMatrix& s) {
    gf2::Matrix dense = to_dense(s);
    const size_t rank = dense.rref_m4r();
    for (bool use_m4r : {true, false}) {
        SparseMatrix sparse = s;
        ASSERT_EQ(sparse.rref(use_m4r), rank) << "use_m4r=" << use_m4r;
        ASSERT_EQ(sparse.rows(), rank);
        for (size_t r = 0; r < rank; ++r)
            ASSERT_EQ(sparse.row(r), dense.row_ones(r))
                << "row " << r << " use_m4r=" << use_m4r;
    }
    for (size_t r = rank; r < dense.rows(); ++r)
        ASSERT_TRUE(dense.row_is_zero(r));
}

SparseMatrix random_sparse(size_t rows, size_t cols, double density,
                           Rng& rng) {
    SparseMatrix s(cols);
    const auto threshold = static_cast<uint64_t>(density * 1e6);
    for (size_t r = 0; r < rows; ++r) {
        SparseMatrix::Row row;
        for (size_t c = 0; c < cols; ++c)
            if (rng.below(1000000) < threshold)
                row.push_back(static_cast<uint32_t>(c));
        s.add_row(std::move(row));
    }
    return s;
}

// ---- random matrices ------------------------------------------------------

TEST(SparseRref, EmptyShapes) {
    expect_matches_oracle(SparseMatrix(0));
    expect_matches_oracle(SparseMatrix(10));  // 0 rows
    SparseMatrix zero_cols(0);
    zero_cols.add_row({});
    zero_cols.add_row({});
    expect_matches_oracle(zero_cols);
}

TEST(SparseRref, OneByOne) {
    SparseMatrix zero(1);
    zero.add_row({});
    expect_matches_oracle(zero);
    SparseMatrix one(1);
    one.add_row({0});
    expect_matches_oracle(one);
}

TEST(SparseRref, ZeroDuplicateAndSharedLeadRows) {
    SparseMatrix s(8);
    s.add_row({});
    s.add_row({1, 4, 7});
    s.add_row({1, 4, 7});  // duplicate row
    s.add_row({});
    s.add_row({1, 2});     // shared lead, sparser: becomes the pivot
    s.add_row({1, 3, 5, 6});
    s.add_row({2, 7});
    s.add_row({0, 7});
    expect_matches_oracle(s);

    SparseMatrix same(5);  // every row leads at column 0
    for (int i = 0; i < 6; ++i) same.add_row({0, uint32_t(1 + i % 4)});
    expect_matches_oracle(same);
}

class SparseRrefRandom : public ::testing::TestWithParam<int> {};

TEST_P(SparseRrefRandom, MatchesDenseOracle) {
    Rng rng(testutil::test_seed() * 7919 + GetParam());
    for (double density : {0.001, 0.005, 0.02, 0.1, 0.3, 0.5}) {
        const size_t rows = 1 + rng.below(120);
        const size_t cols = 1 + rng.below(160);
        expect_matches_oracle(random_sparse(rows, cols, density, rng));
    }
}

TEST_P(SparseRrefRandom, RankDeficient) {
    // Rows are random sums of a few base rows: rank <= base count, with
    // many duplicate leads and rows that reduce to zero.
    Rng rng(testutil::test_seed() * 104729 + GetParam());
    const size_t cols = 20 + rng.below(200);
    const size_t base_rows = 1 + rng.below(12);
    const gf2::Matrix base =
        to_dense(random_sparse(base_rows, cols, 0.05, rng));
    SparseMatrix s(cols);
    for (size_t r = 0, n = 10 + rng.below(80); r < n; ++r) {
        gf2::Matrix acc(1, cols);
        for (size_t b = 0; b < base_rows; ++b)
            if (rng.coin())
                for (uint32_t c : base.row_ones(b)) acc.flip(0, c);
        s.add_row(acc.row_ones(0));
    }
    expect_matches_oracle(s);
}

TEST_P(SparseRrefRandom, TallAndWide) {
    Rng rng(testutil::test_seed() * 1299709 + GetParam());
    expect_matches_oracle(random_sparse(400, 60, 0.03, rng));
    expect_matches_oracle(random_sparse(60, 600, 0.01, rng));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRrefRandom, ::testing::Range(0, 12));

// ---- small XL expansions ----------------------------------------------------

/// The first `max_polys` polynomials and their degree-1 XL expansion by
/// the variables they contain.
std::vector<Polynomial> xl_expand(const std::vector<Polynomial>& system,
                                  size_t max_polys) {
    std::vector<Polynomial> sampled(
        system.begin(),
        system.begin() + std::min(max_polys, system.size()));
    std::vector<anf::Var> vars;
    for (const auto& p : sampled)
        for (anf::Var v : p.variables()) vars.push_back(v);
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    std::vector<Polynomial> out = sampled;
    for (const auto& p : sampled)
        for (anf::Var v : vars) {
            Polynomial prod = p * Monomial(v);
            if (!prod.is_zero()) out.push_back(std::move(prod));
        }
    return out;
}

/// The facts the pre-sparse path took from a dense RREF: linear rows and
/// monomial + 1 rows, or just 1 on a 1 = 0 row.
std::vector<Polynomial> dense_facts(const core::Linearization& lin) {
    gf2::Matrix dense = to_dense(lin.matrix);
    dense.rref_m4r();
    std::vector<Polynomial> facts;
    for (size_t r = 0; r < dense.rows(); ++r) {
        std::vector<Monomial> monos;
        for (uint32_t c : dense.row_ones(r))
            monos.push_back(lin.col_monomial[c]);
        const Polynomial p(std::move(monos));
        if (p.is_zero()) continue;
        if (p.is_one()) return {Polynomial::constant(true)};
        const bool mono_fact =
            p.size() == 2 && p.has_constant_term() && p.degree() >= 2;
        if (p.degree() <= 1 || mono_fact) facts.push_back(p);
    }
    return facts;
}

void expect_system_matches_oracle(const std::vector<Polynomial>& polys) {
    core::Linearization lin = core::linearize(polys);
    ASSERT_EQ(lin.rows(), polys.size());
    expect_matches_oracle(lin.matrix);
    const std::vector<Polynomial> expected = dense_facts(lin);
    core::reduce(lin);
    EXPECT_EQ(core::extract_facts(lin), expected);
}

TEST(SparseRrefXl, Simon) {
    Rng rng(testutil::test_seed() * 31 + 1);
    const auto inst = crypto::Simon32(2).encode(1, rng);
    expect_system_matches_oracle(xl_expand(inst.polys, 24));
}

TEST(SparseRrefXl, SmallScaleAes) {
    Rng rng(testutil::test_seed() * 31 + 2);
    crypto::SmallScaleAes::Params p;  // SR(1,1,1,4)
    p.rounds = 1;
    p.rows = 1;
    p.cols = 1;
    p.e = 4;
    const auto inst = crypto::SmallScaleAes(p).random_instance(rng);
    expect_system_matches_oracle(xl_expand(inst.polys, 40));
}

TEST(SparseRrefXl, PlantedQuadratics) {
    Rng rng(testutil::test_seed() * 31 + 3);
    const auto inst = cnfgen::planted_quadratic_anf(16, 24, 3, 2, rng);
    expect_system_matches_oracle(xl_expand(inst.polys, 24));
}

TEST(SparseRrefXl, CnfDerived) {
    Rng rng(testutil::test_seed() * 31 + 4);
    const auto conv = core::cnf_to_anf(cnfgen::random_ksat(20, 90, 3, rng));
    expect_system_matches_oracle(xl_expand(conv.polys, 40));
}

TEST(SparseRrefXl, MonomialAndLinearFactsAreKept) {
    const Polynomial x0x1(Monomial(std::vector<anf::Var>{0, 1}));
    const Polynomial x1x2(Monomial(std::vector<anf::Var>{1, 2}));
    const std::vector<Polynomial> polys = {
        x0x1 + Polynomial::constant(true),
        x0x1 + x1x2 + Polynomial::variable(2),
        x1x2 + Polynomial::variable(3) + Polynomial::constant(true)};
    expect_system_matches_oracle(polys);
    core::Linearization lin = core::linearize(polys);
    core::reduce(lin);
    // The sum of all three rows is linear; x1x2 keeps a degree-2 row with
    // three terms, which is no fact.
    const std::vector<Polynomial> expected = {
        x0x1 + Polynomial::constant(true),
        Polynomial::variable(2) + Polynomial::variable(3)};
    EXPECT_EQ(core::extract_facts(lin), expected);
}

TEST(SparseRrefXl, ContradictionIsTheOnlyFact) {
    const std::vector<Polynomial> polys = {
        Polynomial::variable(0) + Polynomial::variable(1),
        Polynomial::variable(1) + Polynomial::constant(true),
        Polynomial::variable(0),
        Polynomial(Monomial(std::vector<anf::Var>{0, 2})) +
            Polynomial::constant(true)};
    expect_system_matches_oracle(polys);
    core::Linearization lin = core::linearize(polys);
    core::reduce(lin);
    const auto facts = core::extract_facts(lin);
    ASSERT_EQ(facts.size(), 1u);
    EXPECT_TRUE(facts[0].is_one());
}

// ---- cancellation -----------------------------------------------------------

TEST(SparseRrefCancel, PreCancelledXlLearnsNothing) {
    Rng rng(7);
    const auto inst = cnfgen::planted_quadratic_anf(16, 24, 3, 2, rng);
    runtime::CancellationSource src;
    src.request_cancel();
    core::XlConfig cfg;
    cfg.m_budget = 14;
    core::XlStats stats;
    EXPECT_TRUE(
        core::run_xl(inst.polys, cfg, rng, &stats, src.token()).empty());
    EXPECT_EQ(stats.facts, 0u);
    EXPECT_TRUE(core::run_elimlin(inst.polys, {}, rng, nullptr, src.token())
                    .empty());
    EXPECT_TRUE(core::run_groebner(inst.polys, {}, rng, nullptr, src.token())
                    .empty());
}

TEST(SparseRrefCancel, CancelInsideTheEliminationDiscardsTheMatrix) {
    // The token fires on its third poll: after the pivot-block phase and
    // the first batch of Schur rows, i.e. inside the kernel.
    Rng rng(11);
    SparseMatrix s = random_sparse(2000, 300, 0.01, rng);
    int polls = 0;
    const auto token = runtime::CancellationToken::linked(
        {}, [&polls] { return ++polls >= 3; });
    EXPECT_EQ(s.rref(true, token), 0u);
    EXPECT_EQ(polls, 3);
    EXPECT_EQ(s.rows(), 0u);

    core::Linearization lin = core::linearize(
        xl_expand(cnfgen::planted_quadratic_anf(16, 24, 3, 2, rng).polys, 24));
    runtime::CancellationSource src;
    src.request_cancel();
    EXPECT_EQ(core::reduce(lin, true, src.token()), 0u);
    EXPECT_EQ(lin.rows(), 0u);
    EXPECT_TRUE(core::extract_facts(lin).empty());
}

TEST(SparseRrefCancel, DenseKernelStopsWithinOneColumnBlock) {
    // rref_m4r polls once per column block: a token already cancelled at
    // the call is seen before the first block completes.
    Rng rng(13);
    gf2::Matrix m = gf2::Matrix::random(256, 256, rng);
    int polls = 0;
    const auto token = runtime::CancellationToken::linked(
        {}, [&polls] { ++polls; return true; });
    EXPECT_LE(m.rref_m4r(8, token), 8u) << "at most one block of pivots";
    EXPECT_EQ(polls, 1);
    gf2::Matrix full = gf2::Matrix::random(256, 256, rng);
    EXPECT_GT(full.rref_m4r(8), 8u);
}

TEST(SparseRrefCancel, CancelInsideTheDenseKernelDiscardsTheMatrix) {
    // 300 rows over 100 columns: the sparse kernel polls after the pivot
    // block, at rows 0 and 256 of the Schur pass and after it (4 polls);
    // the 5th poll is the dense kernel's first column block. The caller
    // sees the cancel right after the kernel returns (6th poll) and clears
    // the matrix.
    Rng rng(17);
    SparseMatrix s = random_sparse(300, 100, 0.05, rng);
    int polls = 0;
    const auto token = runtime::CancellationToken::linked(
        {}, [&polls] { return ++polls >= 5; });
    EXPECT_EQ(s.rref(true, token), 0u);
    EXPECT_EQ(polls, 6);
    EXPECT_EQ(s.rows(), 0u);
}

}  // namespace
}  // namespace bosphorus
