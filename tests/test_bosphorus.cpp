// End-to-end tests for the Bosphorus workflow (Fig. 1) and the Table II
// solving pipeline.
#include <gtest/gtest.h>

#include <sstream>

#include "anf/anf_parser.h"
#include "cnfgen/generators.h"
#include "core/bosphorus.h"
#include "core/pipeline.h"
#include "crypto/simon.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus::core {
namespace {

using anf::parse_system_from_string;
using anf::Polynomial;

Options small_options() {
    Options opt;
    opt.xl.m_budget = 16;
    opt.elimlin.m_budget = 16;
    opt.sat_conflicts_start = 1000;
    opt.sat_conflicts_max = 10'000;
    opt.sat_conflicts_step = 1000;
    opt.max_iterations = 8;
    opt.time_budget_s = 10.0;
    return opt;
}

TEST(Bosphorus, SolvesPaperExample) {
    const auto sys = parse_system_from_string(
        "x1*x2 + x3 + x4 + 1\n"
        "x1*x2*x3 + x1 + x3 + 1\n"
        "x1*x3 + x3*x4*x5 + x3\n"
        "x2*x3 + x3*x5 + 1\n"
        "x2*x3 + x5 + 1\n");
    Bosphorus tool(small_options());
    const auto res = tool.process_anf(sys.polynomials, 5);
    ASSERT_EQ(res.status, sat::Result::kSat);
    const std::vector<bool> expect{true, true, true, true, false};
    EXPECT_EQ(res.solution, expect) << "unique solution of the system";
    EXPECT_GT(res.facts_from_xl, 0u) << "XL must contribute facts";
}

TEST(Bosphorus, DetectsUnsat) {
    const auto sys = parse_system_from_string(
        "x1 + x2\n"
        "x2 + x3\n"
        "x1 + x3 + 1\n");
    Bosphorus tool(small_options());
    const auto res = tool.process_anf(sys.polynomials, 3);
    EXPECT_EQ(res.status, sat::Result::kUnsat);
}

TEST(Bosphorus, EmptySystemIsSat) {
    Bosphorus tool(small_options());
    const auto res = tool.process_anf({}, 3);
    EXPECT_EQ(res.status, sat::Result::kSat);
}

TEST(Bosphorus, AblationSwitchesRespected) {
    const auto sys = parse_system_from_string(
        "x1*x2 + x3 + x4 + 1\n"
        "x1*x2*x3 + x1 + x3 + 1\n"
        "x1*x3 + x3*x4*x5 + x3\n"
        "x2*x3 + x3*x5 + 1\n"
        "x2*x3 + x5 + 1\n");
    Options opt = small_options();
    opt.use_xl = false;
    opt.use_elimlin = false;
    Bosphorus tool(opt);
    const auto res = tool.process_anf(sys.polynomials, 5);
    EXPECT_EQ(res.facts_from_xl, 0u);
    EXPECT_EQ(res.facts_from_elimlin, 0u);
    // SAT step alone still decides this tiny instance.
    EXPECT_EQ(res.status, sat::Result::kSat);
}

TEST(Bosphorus, ProcessedCnfCarriesLearntFacts) {
    // On a linear system everything is learnt; the processed CNF must pin
    // all variables (units only).
    const auto sys = parse_system_from_string(
        "x1 + x2\n"
        "x2 + 1\n"
        "x3 + x1 + 1\n");
    Options opt = small_options();
    opt.use_sat = false;  // keep it to XL/ElimLin + propagation
    Bosphorus tool(opt);
    const auto res = tool.process_anf(sys.polynomials, 3);
    EXPECT_EQ(res.vars_fixed, 3u);
    const auto models = testutil::cnf_models(res.processed_cnf.cnf);
    ASSERT_EQ(models.size(), 1u);
    EXPECT_EQ(models[0] & 7u, 3u) << "x1=1, x2=1, x3=0";
}

TEST(Bosphorus, ProcessCnfAugmentsOriginal) {
    Rng rng(17);
    const sat::Cnf cnf = cnfgen::xor_cycle(8, /*satisfiable=*/false, rng);
    Bosphorus tool(small_options());
    const auto res = tool.process_cnf(cnf);
    EXPECT_EQ(res.status, sat::Result::kUnsat)
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

    Options opt = small_options();
    opt.seed = GetParam() + 1;
    Bosphorus tool(opt);
    const auto res = tool.process_anf(polys, nv);

    if (models.empty()) {
        EXPECT_EQ(res.status, sat::Result::kUnsat);
    } else {
        // The loop usually finds a solution via its SAT step; it must never
        // claim UNSAT, and any solution must check out.
        EXPECT_NE(res.status, sat::Result::kUnsat);
        if (res.status == sat::Result::kSat) {
            uint32_t m = 0;
            for (unsigned v = 0; v < nv; ++v)
                if (res.solution[v]) m |= 1u << v;
            EXPECT_NE(std::find(models.begin(), models.end(), m),
                      models.end());
        }
        // The processed system must preserve the solution set over the
        // original variables.
        const auto processed =
            testutil::anf_models(res.processed_anf, nv);
        EXPECT_EQ(processed, models);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BosphorusRandom, ::testing::Range(0, 25));

// ---- pipeline ---------------------------------------------------------------

TEST(Pipeline, Par2Score) {
    std::vector<PipelineOutcome> outcomes(3);
    outcomes[0].result = sat::Result::kSat;
    outcomes[0].seconds = 1.5;
    outcomes[1].result = sat::Result::kUnsat;
    outcomes[1].seconds = 2.0;
    outcomes[2].result = sat::Result::kUnknown;
    outcomes[2].seconds = 5.0;  // timed out
    EXPECT_DOUBLE_EQ(par2_score(outcomes, 5.0), 1.5 + 2.0 + 10.0);
}

TEST(Pipeline, AnfInstanceBothModes) {
    const crypto::Simon32 simon(4);
    Rng rng(5);
    const auto inst = simon.encode(2, rng);

    for (const bool with : {false, true}) {
        PipelineConfig cfg;
        cfg.solver = sat::SolverKind::kCmsLike;
        cfg.use_bosphorus = with;
        cfg.bosphorus = small_options();
        cfg.timeout_s = 30.0;
        cfg.bosphorus_budget_s = 5.0;
        const auto out = solve_anf_instance(inst.polys, inst.num_vars, cfg);
        EXPECT_EQ(out.result, sat::Result::kSat) << "with=" << with;
        EXPECT_TRUE(out.model_verified || out.solved_in_loop);
    }
}

TEST(Pipeline, CnfInstanceBothModes) {
    Rng rng(6);
    const sat::Cnf cnf = cnfgen::random_ksat(20, 70, 3, rng);
    const bool expect_sat = !testutil::cnf_models(cnf).empty();
    for (const bool with : {false, true}) {
        PipelineConfig cfg;
        cfg.solver = sat::SolverKind::kMinisatLike;
        cfg.use_bosphorus = with;
        cfg.bosphorus = small_options();
        cfg.timeout_s = 30.0;
        cfg.bosphorus_budget_s = 5.0;
        const auto out = solve_cnf_instance(cnf, cfg);
        EXPECT_EQ(out.result == sat::Result::kSat, expect_sat)
            << "with=" << with;
    }
}

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
}  // namespace bosphorus::core
