// Tests for the Method-of-Four-Russians elimination (M4RI's algorithm) and
// the degree-bounded Groebner (Buchberger/F4) learning step.
#include <gtest/gtest.h>

#include "anf/anf_parser.h"
#include "bosphorus/engine.h"
#include "core/groebner.h"
#include "gf2/gf2_matrix.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

// ---- Method of Four Russians ------------------------------------------

class M4rRandom : public ::testing::TestWithParam<int> {};

TEST_P(M4rRandom, MatchesPlainRrefExactly) {
    Rng rng(GetParam());
    const size_t rows = 1 + rng.below(60);
    const size_t cols = 1 + rng.below(90);
    const gf2::Matrix original = gf2::Matrix::random(rows, cols, rng);

    gf2::Matrix plain = original;
    std::vector<size_t> pivots;
    const size_t rank_plain = plain.rref(&pivots);  // forces the plain path

    for (const unsigned k : {1u, 2u, 3u, 8u, 11u}) {
        gf2::Matrix fast = original;
        const size_t rank_fast = fast.rref_m4r(k);
        EXPECT_EQ(rank_fast, rank_plain) << "k=" << k;
        EXPECT_EQ(fast, plain) << "k=" << k << " " << rows << "x" << cols;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, M4rRandom, ::testing::Range(0, 30));

TEST(M4r, LargeMatrixDispatch) {
    // rref() on a big matrix dispatches to M4R; spot-check the rank against
    // the row_echelon() count.
    Rng rng(99);
    gf2::Matrix m = gf2::Matrix::random(300, 300, rng);
    gf2::Matrix probe = m;
    const size_t rank = m.rref();
    EXPECT_EQ(probe.row_echelon(), rank);
    // Full-rank with overwhelming probability; at minimum near-full.
    EXPECT_GE(rank, 290u);
}

TEST(M4r, RankDeficientStructured) {
    // Duplicate rows and zero columns exercise the pivot-skip path.
    gf2::Matrix m(6, 10);
    for (size_t c : {1u, 3u, 4u}) {
        m.set(0, c, true);
        m.set(1, c, true);  // duplicate of row 0
    }
    m.set(2, 5, true);
    m.set(3, 5, true);  // duplicate of row 2
    // rows 4, 5 zero
    gf2::Matrix plain = m, fast = m;
    std::vector<size_t> pivots;
    EXPECT_EQ(plain.rref(&pivots), 2u);
    EXPECT_EQ(fast.rref_m4r(4), 2u);
    EXPECT_EQ(fast, plain);
}

TEST(M4r, IdentityStaysIdentity) {
    gf2::Matrix m = gf2::Matrix::identity(50);
    EXPECT_EQ(m.rref_m4r(6), 50u);
    EXPECT_EQ(m, gf2::Matrix::identity(50));
}

// ---- Groebner step -------------------------------------------------------

using anf::parse_system_from_string;
using anf::Polynomial;

TEST(Groebner, DerivesFactBeyondPlainGje) {
    // {x1x2 + x3, x1x3}: the S-pair of the two equations gives
    // x1x3 + x1x2*... -> multiplying relations reveals x3's behaviour.
    // Concretely x1*(x1x2 + x3) = x1x2 + x1x3, + (x1x2 + x3) = x1x3 + x3,
    // + x1x3 = x3. Verify run_groebner finds the linear fact x3.
    const auto sys = parse_system_from_string("x1*x2 + x3\nx1*x3\n");
    core::GroebnerConfig cfg;
    Rng rng(1);
    const auto facts = core::run_groebner(sys.polynomials, cfg, rng);
    bool found = false;
    for (const auto& f : facts) found |= (f == anf::parse_polynomial("x3"));
    EXPECT_TRUE(found) << "expected the consequence x3 = 0";
}

TEST(Groebner, DetectsTrivialIdeal) {
    const auto sys = parse_system_from_string("x1\nx1 + 1\n");
    core::GroebnerConfig cfg;
    Rng rng(1);
    const auto facts = core::run_groebner(sys.polynomials, cfg, rng);
    ASSERT_EQ(facts.size(), 1u);
    EXPECT_TRUE(facts[0].is_one());
}

TEST(Groebner, EmptySystem) {
    core::GroebnerConfig cfg;
    Rng rng(1);
    EXPECT_TRUE(core::run_groebner({}, cfg, rng).empty());
}

class GroebnerRandom : public ::testing::TestWithParam<int> {};

TEST_P(GroebnerRandom, FactsAreConsequences) {
    Rng rng(GetParam() + 300);
    const unsigned nv = 4 + rng.below(3);
    std::vector<Polynomial> polys;
    const size_t np = 3 + rng.below(4);
    for (size_t i = 0; i < np; ++i) {
        std::vector<anf::Monomial> monos;
        const size_t nm = 1 + rng.below(4);
        for (size_t j = 0; j < nm; ++j) {
            std::vector<anf::Var> vars;
            const size_t d = rng.below(3);
            for (size_t l = 0; l < d; ++l)
                vars.push_back(static_cast<anf::Var>(rng.below(nv)));
            monos.emplace_back(std::move(vars));
        }
        polys.emplace_back(std::move(monos));
    }
    const auto models = testutil::anf_models(polys, nv);

    core::GroebnerConfig cfg;
    Rng grng(GetParam() * 7 + 3);
    core::GroebnerStats stats;
    const auto facts = core::run_groebner(polys, cfg, grng, &stats);
    for (const auto& f : facts) {
        if (f.is_one()) {
            EXPECT_TRUE(models.empty()) << "Groebner claimed UNSAT wrongly";
            continue;
        }
        for (uint32_t m : models) {
            std::vector<bool> a(nv);
            for (unsigned v = 0; v < nv; ++v) a[v] = (m >> v) & 1;
            EXPECT_FALSE(f.evaluate(a))
                << "Groebner fact " << f.to_string()
                << " violated by a model";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroebnerRandom, ::testing::Range(0, 30));

TEST(Groebner, PluggedIntoTheLoop) {
    // The Groebner-enabled loop must agree with brute force and can decide
    // instances with XL and SAT disabled.
    const auto sys = parse_system_from_string(
        "x1*x2 + x3\n"
        "x1*x3\n"
        "x2 + x1 + 1\n");
    EngineConfig cfg;
    cfg.use_xl = false;
    cfg.use_elimlin = false;
    cfg.use_groebner = true;
    cfg.xl.m_budget = 16;
    cfg.max_iterations = 8;
    const auto run = Engine(cfg).run(Problem::from_anf(sys.polynomials, 3));
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_GT(run->facts_from("groebner") + run->vars_fixed, 0u);
    EXPECT_NE(run->verdict, sat::Result::kUnsat);
    const auto models = testutil::anf_models(sys.polynomials, 3);
    const auto processed = testutil::anf_models(run->processed_anf, 3);
    EXPECT_EQ(models, processed);
}

}  // namespace
}  // namespace bosphorus
