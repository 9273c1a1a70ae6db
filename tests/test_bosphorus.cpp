// End-to-end tests for the Bosphorus workflow (Fig. 1) through the Engine
// facade: ablation switches, learnt facts in the processed CNF, the CNF
// input path, and a brute-force differential on random ANF.
#include <gtest/gtest.h>

#include <sstream>

#include "anf/anf_parser.h"
#include "bosphorus/engine.h"
#include "cnfgen/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

using anf::parse_system_from_string;
using anf::Polynomial;

EngineConfig small_config() {
    EngineConfig cfg;
    cfg.xl.m_budget = 16;
    cfg.elimlin.m_budget = 16;
    cfg.sat_conflicts_start = 1000;
    cfg.sat_conflicts_max = 10'000;
    cfg.sat_conflicts_step = 1000;
    cfg.max_iterations = 8;
    cfg.time_budget_s = 10.0;
    return cfg;
}

TEST(Bosphorus, AblationSwitchesRespected) {
    const auto sys = parse_system_from_string(
        "x1*x2 + x3 + x4 + 1\n"
        "x1*x2*x3 + x1 + x3 + 1\n"
        "x1*x3 + x3*x4*x5 + x3\n"
        "x2*x3 + x3*x5 + 1\n"
        "x2*x3 + x5 + 1\n");
    EngineConfig cfg = small_config();
    cfg.use_xl = false;
    cfg.use_elimlin = false;
    const auto run =
        Engine(cfg).run(Problem::from_anf(sys.polynomials, 5));
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_EQ(run->facts_from("xl"), 0u);
    EXPECT_EQ(run->facts_from("elimlin"), 0u);
    // SAT step alone still decides this tiny instance.
    EXPECT_EQ(run->verdict, sat::Result::kSat);
}

TEST(Bosphorus, ProcessedCnfCarriesLearntFacts) {
    // On a linear system everything is learnt; the processed CNF must pin
    // all variables (units only).
    const auto sys = parse_system_from_string(
        "x1 + x2\n"
        "x2 + 1\n"
        "x3 + x1 + 1\n");
    EngineConfig cfg = small_config();
    cfg.use_sat = false;  // keep it to XL/ElimLin + propagation
    const auto run =
        Engine(cfg).run(Problem::from_anf(sys.polynomials, 3));
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_EQ(run->vars_fixed, 3u);
    const auto models = testutil::cnf_models(run->processed_cnf.cnf);
    ASSERT_EQ(models.size(), 1u);
    EXPECT_EQ(models[0] & 7u, 3u) << "x1=1, x2=1, x3=0";
}

TEST(Bosphorus, ProcessCnfAugmentsOriginal) {
    Rng rng(17);
    const sat::Cnf cnf = cnfgen::xor_cycle(8, /*satisfiable=*/false, rng);
    const auto run = Engine(small_config()).run(Problem::from_cnf(cnf));
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_EQ(run->verdict, sat::Result::kUnsat)
        << "GF(2) reasoning should refute an inconsistent xor cycle";
}

class BosphorusRandom : public ::testing::TestWithParam<int> {};

TEST_P(BosphorusRandom, AgreesWithBruteForceOnRandomAnf) {
    Rng rng(GetParam());
    const unsigned nv = 4 + rng.below(4);
    std::vector<Polynomial> polys;
    const size_t np = 3 + rng.below(6);
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

    EngineConfig cfg = small_config();
    cfg.seed = GetParam() + 1;
    const auto run = Engine(cfg).run(Problem::from_anf(polys, nv));
    ASSERT_TRUE(run.ok()) << run.status().to_string();

    if (models.empty()) {
        EXPECT_EQ(run->verdict, sat::Result::kUnsat);
    } else {
        // The loop usually finds a solution via its SAT step; it must never
        // claim UNSAT, and any solution must check out.
        EXPECT_NE(run->verdict, sat::Result::kUnsat);
        if (run->verdict == sat::Result::kSat) {
            uint32_t m = 0;
            for (unsigned v = 0; v < nv; ++v)
                if (run->solution[v]) m |= 1u << v;
            EXPECT_NE(std::find(models.begin(), models.end(), m),
                      models.end());
        }
        // The processed system must preserve the solution set over the
        // original variables.
        const auto processed =
            testutil::anf_models(run->processed_anf, nv);
        EXPECT_EQ(processed, models);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BosphorusRandom, ::testing::Range(0, 25));

// ---- cnfgen sanity ---------------------------------------------------------

TEST(CnfGen, PigeonholeIsUnsat) {
    for (unsigned holes : {2u, 3u}) {
        EXPECT_TRUE(testutil::cnf_models(cnfgen::pigeonhole(holes)).empty());
    }
}

TEST(CnfGen, XorCycleVerdicts) {
    Rng rng(7);
    for (int i = 0; i < 5; ++i) {
        const auto sat_cnf = cnfgen::xor_cycle(5, true, rng);
        EXPECT_FALSE(testutil::cnf_models(sat_cnf).empty());
        const auto unsat_cnf = cnfgen::xor_cycle(5, false, rng);
        EXPECT_TRUE(testutil::cnf_models(unsat_cnf).empty());
    }
}

TEST(CnfGen, RandomKsatShape) {
    Rng rng(8);
    const auto cnf = cnfgen::random_ksat(12, 40, 3, rng);
    EXPECT_EQ(cnf.num_vars, 12u);
    EXPECT_EQ(cnf.clauses.size(), 40u);
    for (const auto& c : cnf.clauses) EXPECT_EQ(c.size(), 3u);
}

TEST(CnfGen, PlantedQuadraticAnfIsUnchanged) {
    // Digest (64-bit FNV-1a) of written systems and planted models,
    // recorded before the generator gathered each equation's terms and
    // canonicalised once instead of XOR-ing them in one by one.
    Rng rng(5);
    std::ostringstream text;
    for (int i = 0; i < 20; ++i) {
        const auto p = cnfgen::planted_quadratic_anf(40, 60, 3, 2, rng);
        anf::write_system(text, p.polys);
        for (bool b : p.planted) text << b;
        text << "\n";
        for (const auto& poly : p.polys)
            EXPECT_FALSE(poly.evaluate(p.planted));
    }
    // Few variables and many terms: repeated draws must cancel in pairs.
    anf::write_system(text,
                      cnfgen::planted_quadratic_anf(8, 30, 4, 3, rng).polys);
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : text.str()) h = (h ^ c) * 1099511628211ULL;
    EXPECT_EQ(text.str().size(), 49351u);
    EXPECT_EQ(h, 14296069523326757482ULL);
}

TEST(CnfGen, GraphColoringTriangleTwoColorsUnsat) {
    Rng rng(9);
    // A triangle cannot be 2-coloured. Build one deterministically: 3
    // vertices, 3 edges (the generator picks random edges; with 3 vertices
    // and 3 edges it must be the triangle).
    const auto cnf = cnfgen::graph_coloring(3, 3, 2, rng);
    EXPECT_TRUE(testutil::cnf_models(cnf).empty());
}

TEST(CnfGen, SuiteIsWellFormed) {
    const auto suite = cnfgen::sat2017_substitute_suite(1, 42);
    EXPECT_GE(suite.size(), 10u);
    for (const auto& inst : suite) {
        EXPECT_FALSE(inst.name.empty());
        EXPECT_FALSE(inst.family.empty());
        EXPECT_GT(inst.cnf.num_vars, 0u);
        EXPECT_FALSE(inst.cnf.clauses.empty());
    }
}

// ---- rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, BelowInRange) {
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(7), 7u);
        EXPECT_LT(rng.uniform(), 1.0);
        EXPECT_GE(rng.uniform(), 0.0);
    }
}

TEST(RngTest, ShuffleIsPermutation) {
    Rng rng(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    auto w = v;
    rng.shuffle(w);
    std::sort(w.begin(), w.end());
    EXPECT_EQ(w, v);
}

}  // namespace
}  // namespace bosphorus
