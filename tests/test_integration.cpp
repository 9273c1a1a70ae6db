// Cross-module integration tests: full cryptanalytic pipelines from
// instance generation through Bosphorus to verified solutions, plus solver
// robustness under stress.
#include <gtest/gtest.h>

#include "anf/anf_parser.h"
#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "crypto/sha256.h"
#include "crypto/simon.h"
#include "sat/preprocess.h"
#include "sat/solve_cnf.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

TEST(Integration, BitcoinNonceRecoveredAndReverified) {
    // End-to-end: encode a weakened nonce-finding instance, solve it, pull
    // the nonce out of the model, and re-hash to confirm the k zero bits.
    Rng rng(1234);
    const unsigned k = 5, rounds = 16;
    const auto inst = crypto::encode_bitcoin_nonce(k, rounds, rng);

    EngineConfig cfg;
    cfg.xl.m_budget = 18;
    cfg.elimlin.m_budget = 18;
    cfg.sat_conflicts_start = 50'000;
    cfg.time_budget_s = 60.0;
    const auto run =
        Engine(cfg).run(Problem::from_anf(inst.polys, inst.num_vars));
    ASSERT_TRUE(run.ok()) << run.status().to_string();

    std::vector<bool> solution;
    if (run->verdict == sat::Result::kSat) {
        solution = run->solution;
    } else {
        ASSERT_NE(run->verdict, sat::Result::kUnsat);
        const auto so = sat::solve_cnf(run->processed_cnf.cnf,
                                       sat::SolverKind::kCmsLike, 60.0);
        ASSERT_EQ(so.result, sat::Result::kSat);
        solution.resize(inst.num_vars);
        for (size_t v = 0; v < inst.num_vars; ++v)
            solution[v] = so.model[v] == sat::LBool::kTrue;
    }

    uint32_t nonce = 0;
    for (unsigned b = 0; b < 32; ++b)
        if (solution[inst.nonce_base + b]) nonce |= 1u << b;
    std::array<uint32_t, 16> block = inst.block;
    block[12] = (block[12] & ~1u) | (nonce & 1u);
    block[13] = (block[13] & 1u) | ((nonce >> 1) << 1);
    const auto digest = crypto::sha256_compress(block, rounds);
    EXPECT_EQ(digest[0] >> (32 - k), 0u)
        << "recovered nonce fails the difficulty check";
}

TEST(Integration, SimonSolutionSatisfiesAllPairs) {
    // A solved Simon instance's key must reproduce every ciphertext (the
    // recovered key can differ from the generation key only if both are
    // consistent with all pairs -- verify via the ANF itself).
    const crypto::Simon32 simon(5);
    Rng rng(77);
    const auto inst = simon.encode(4, rng);
    SolveConfig cfg;
    cfg.solver = "cms";
    cfg.preprocess = true;
    cfg.engine.xl.m_budget = 20;
    cfg.engine.elimlin.m_budget = 20;
    cfg.timeout_s = 60.0;
    cfg.engine_budget_s = 20.0;
    const auto out =
        solve(Problem::from_anf(inst.polys, inst.num_vars), cfg);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    ASSERT_EQ(out->result, sat::Result::kSat);
    EXPECT_TRUE(out->model_verified || out->solved_in_loop);
}

TEST(Integration, AnfFileRoundTripThroughTool) {
    // parse -> process -> write -> re-parse -> same solution set.
    const std::string text =
        "x1*x2 + x3\n"
        "x2*x3 + x1 + 1\n"
        "x3 + x4\n";
    const auto sys = anf::parse_system_from_string(text);
    EngineConfig cfg;
    cfg.xl.m_budget = 16;
    cfg.elimlin.m_budget = 16;
    cfg.use_sat = false;  // keep the processed system non-collapsed
    const auto run = Engine(cfg).run(Problem::from_anf(sys.polynomials, 4));
    ASSERT_TRUE(run.ok()) << run.status().to_string();

    std::ostringstream out;
    anf::write_system(out, run->processed_anf);
    const auto again = anf::parse_system_from_string(out.str());
    EXPECT_EQ(testutil::anf_models(sys.polynomials, 4),
              testutil::anf_models(again.polynomials, 4));
}

TEST(Integration, GroebnerPlusSatOnSimon) {
    // The Groebner-extended loop stays sound on a real cipher instance.
    const crypto::Simon32 simon(4);
    Rng rng(9);
    const auto inst = simon.encode(2, rng);
    EngineConfig cfg;
    cfg.use_groebner = true;
    cfg.groebner.max_pair_degree = 3;
    cfg.xl.m_budget = 18;
    cfg.elimlin.m_budget = 18;
    cfg.time_budget_s = 30.0;
    const auto run =
        Engine(cfg).run(Problem::from_anf(inst.polys, inst.num_vars));
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_NE(run->verdict, sat::Result::kUnsat)
        << "satisfiable instance (witness exists) flagged UNSAT";
    if (run->verdict == sat::Result::kSat) {
        // The in-loop solution must satisfy the original equations.
        ASSERT_GE(run->solution.size(), inst.num_vars);
        for (const auto& poly : inst.polys)
            EXPECT_FALSE(poly.evaluate(run->solution)) << poly.to_string();
    }
}

// ---- solver robustness ----------------------------------------------------

TEST(SolverStress, RepeatedSolveCallsAreConsistent) {
    Rng rng(11);
    const sat::Cnf cnf = cnfgen::random_ksat(30, 126, 3, rng);
    sat::Solver solver;
    ASSERT_TRUE(solver.load(cnf));
    const sat::Result first = solver.solve();
    const sat::Result second = solver.solve();
    EXPECT_EQ(first, second) << "re-solving must not change the verdict";
}

TEST(SolverStress, BudgetedThenUnboundedSolve) {
    // Run out of budget, then finish the job on the same solver instance;
    // learnt clauses from the first call must stay sound.
    Rng rng(12);
    const sat::Cnf cnf = cnfgen::pigeonhole(6);
    sat::Solver solver;
    ASSERT_TRUE(solver.load(cnf));
    EXPECT_EQ(solver.solve(/*conflict_budget=*/50), sat::Result::kUnknown);
    EXPECT_EQ(solver.solve(), sat::Result::kUnsat);
}

TEST(SolverStress, ReduceDbKeepsCorrectness) {
    // Enough conflicts to trigger several clause-database reductions.
    Rng rng(13);
    for (int i = 0; i < 3; ++i) {
        const sat::Cnf cnf = cnfgen::random_ksat(60, 258, 3, rng);
        const bool expect_sat =
            sat::solve_cnf(cnf, sat::SolverKind::kLingelingLike).result ==
            sat::Result::kSat;
        const auto out = sat::solve_cnf(cnf, sat::SolverKind::kMinisatLike);
        EXPECT_EQ(out.result == sat::Result::kSat, expect_sat);
        if (out.result == sat::Result::kSat)
            EXPECT_TRUE(sat::model_satisfies(cnf, out.model));
    }
}

TEST(SolverStress, LearntBinariesAreImplied) {
    Rng rng(14);
    for (int inst = 0; inst < 8; ++inst) {
        const sat::Cnf cnf = cnfgen::random_ksat(9, 34, 3, rng);
        const auto models = testutil::cnf_models(cnf);
        if (models.empty()) continue;
        sat::Solver solver;
        if (!solver.load(cnf)) continue;
        solver.solve();
        for (const auto& b : solver.learnt_binaries()) {
            for (const uint32_t m : models) {
                const bool v0 = ((m >> b[0].var()) & 1) != b[0].sign();
                const bool v1 = ((m >> b[1].var()) & 1) != b[1].sign();
                EXPECT_TRUE(v0 || v1)
                    << "learnt binary clause contradicts a model";
            }
        }
    }
}

TEST(SolverStress, PreprocessorThenXorEngine) {
    // Lingeling-like preprocessing freezes XOR variables; combining a
    // preprocessed load with native XOR constraints must stay sound.
    Rng rng(15);
    sat::Cnf cnf = cnfgen::random_ksat(15, 45, 3, rng);
    cnf.xors.push_back({{0, 1, 2, 3}, true});
    cnf.xors.push_back({{3, 4, 5}, false});
    const auto brute = testutil::cnf_models(cnf);
    sat::Cnf work = cnf;
    sat::Preprocessor prep;
    const bool ok = prep.simplify(work);
    if (!ok) {
        EXPECT_TRUE(brute.empty());
        return;
    }
    sat::Solver::Config scfg;
    scfg.enable_xor = true;
    sat::Solver solver(scfg);
    const bool load_ok = solver.load(work);
    const sat::Result r = load_ok ? solver.solve() : sat::Result::kUnsat;
    EXPECT_EQ(r == sat::Result::kSat, !brute.empty());
    if (r == sat::Result::kSat) {
        std::vector<sat::LBool> model(solver.model());
        model.resize(cnf.num_vars, sat::LBool::kFalse);
        prep.extend_model(model);
        EXPECT_TRUE(sat::model_satisfies(cnf, model));
    }
}

}  // namespace
}  // namespace bosphorus
