// Error-path and boundary tests: invalid constructions must fail loudly,
// and boundary parameters must behave.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bosphorus/sat_backend.h"
#include "core/anf_to_cnf.h"
#include "core/cnf_to_anf.h"
#include "crypto/aes_small.h"
#include "crypto/gf2e.h"
#include "sat/solve_cnf.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

TEST(ErrorPaths, Gf2eRejectsBadDegree) {
    EXPECT_THROW(crypto::GF2E(0), std::invalid_argument);
    EXPECT_THROW(crypto::GF2E(1), std::invalid_argument);
    EXPECT_THROW(crypto::GF2E(9), std::invalid_argument);
    EXPECT_NO_THROW(crypto::GF2E(2));
    EXPECT_NO_THROW(crypto::GF2E(8));
}

TEST(ErrorPaths, AesRejectsBadShape) {
    crypto::SmallScaleAes::Params p;
    p.rows = 3;  // unsupported (no MDS matrix defined)
    EXPECT_THROW(crypto::SmallScaleAes{p}, std::invalid_argument);
    p.rows = 2;
    p.e = 5;
    EXPECT_THROW(crypto::SmallScaleAes{p}, std::invalid_argument);
    p.e = 4;
    p.cols = 5;
    EXPECT_THROW(crypto::SmallScaleAes{p}, std::invalid_argument);
}

TEST(ErrorPaths, AnfToCnfZeroPolynomialsIgnored) {
    const auto res = core::anf_to_cnf({anf::Polynomial()}, 2);
    EXPECT_TRUE(res.cnf.clauses.empty());
}

TEST(ErrorPaths, CnfToAnfEmptyClauseIsContradiction) {
    sat::Cnf cnf;
    cnf.num_vars = 2;
    cnf.add_clause({});
    const auto res = core::cnf_to_anf(cnf);
    ASSERT_EQ(res.polys.size(), 1u);
    EXPECT_TRUE(res.polys[0].is_one()) << "empty clause = the equation 1 = 0";
}

TEST(ErrorPaths, CnfToAnfTautologyVanishes) {
    sat::Cnf cnf;
    cnf.num_vars = 1;
    cnf.add_clause({sat::mk_lit(0, false), sat::mk_lit(0, true)});
    const auto res = core::cnf_to_anf(cnf);
    ASSERT_EQ(res.polys.size(), 1u);
    EXPECT_TRUE(res.polys[0].is_zero()) << "x * (x+1) = 0 identically";
}

TEST(ErrorPaths, SolveCnfOnContradictoryXors) {
    sat::Cnf cnf;
    cnf.num_vars = 2;
    cnf.xors.push_back({{0, 1}, true});
    cnf.xors.push_back({{0, 1}, false});
    for (const auto kind :
         {sat::SolverKind::kMinisatLike, sat::SolverKind::kLingelingLike,
          sat::SolverKind::kCmsLike}) {
        EXPECT_EQ(sat::solve_cnf(cnf, kind).result, sat::Result::kUnsat)
            << sat::SolverSpec(kind).spec;
    }
}

TEST(ErrorPaths, SingleVariableXor) {
    sat::Cnf cnf;
    cnf.num_vars = 1;
    cnf.xors.push_back({{0}, true});  // x = 1
    const auto out = sat::solve_cnf(cnf, sat::SolverKind::kCmsLike);
    ASSERT_EQ(out.result, sat::Result::kSat);
    EXPECT_EQ(out.model[0], sat::LBool::kTrue);
}

TEST(ErrorPaths, EmptyXorRhsTrueIsUnsat) {
    sat::Cnf cnf;
    cnf.num_vars = 1;
    cnf.xors.push_back({{}, true});  // 0 = 1
    EXPECT_EQ(sat::solve_cnf(cnf, sat::SolverKind::kCmsLike).result,
              sat::Result::kUnsat);
    cnf.xors[0].rhs = false;  // 0 = 0: fine
    sat::Cnf ok;
    ok.num_vars = 1;
    ok.xors.push_back({{}, false});
    EXPECT_EQ(sat::solve_cnf(ok, sat::SolverKind::kCmsLike).result,
              sat::Result::kSat);
}

TEST(ErrorPaths, DuplicateVarsInXorCancel) {
    sat::Cnf cnf;
    cnf.num_vars = 2;
    // x ^ x ^ y = 1 reduces to y = 1.
    cnf.xors.push_back({{0, 0, 1}, true});
    const auto out = sat::solve_cnf(cnf, sat::SolverKind::kCmsLike);
    ASSERT_EQ(out.result, sat::Result::kSat);
    EXPECT_EQ(out.model[1], sat::LBool::kTrue);
}

}  // namespace
}  // namespace bosphorus
// Appended: Tseitin-expander generator checks (kept here to avoid another
// test translation unit).
#include "cnfgen/generators.h"
namespace bosphorus {
namespace {
TEST(TseitinExpander, VerdictMatchesBruteForce) {
    Rng rng(21);
    for (int i = 0; i < 6; ++i) {
        const bool satisfiable = (i % 2 == 0);
        const auto cnf = cnfgen::tseitin_expander(5, satisfiable, rng);
        if (cnf.num_vars > 20) continue;
        EXPECT_EQ(!testutil::cnf_models(cnf).empty(), satisfiable) << i;
    }
}
TEST(TseitinExpander, GjeSolverDecidesInstantly) {
    Rng rng(22);
    const auto cnf = cnfgen::tseitin_expander(40, false, rng);
    const auto out = sat::solve_cnf(cnf, sat::SolverKind::kCmsLike, 10.0);
    EXPECT_EQ(out.result, sat::Result::kUnsat)
        << "XOR recovery + level-0 GJE must refute the odd-charged Tseitin "
           "formula";
}
}  // namespace
}  // namespace bosphorus
// Appended: stream-preprocessor I/O fault injection (PR 9). Injected
// short writes, ENOSPC and read errors must surface as structured Status
// values and must never leave a partial output file (or its temp twin)
// behind.
#include <fstream>
#include <string>

#include "bosphorus/stream.h"
#include "util/fault.h"

namespace bosphorus {
namespace {

namespace streamfault {

std::string write_input(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::trunc);
    out << "p cnf 4 5\n1 2 0\n-1 3 0\n-2 -3 0\n3 4 0\n-3 -4 0\n";
    EXPECT_TRUE(static_cast<bool>(out));
    return path;
}

bool exists(const std::string& path) {
    return std::ifstream(path).good();
}

std::string seeded_plan(const std::string& plan) {
    return plan + ",seed=" + std::to_string(testutil::test_seed());
}

/// Run the preprocessor under `plan`; the fault must yield kIoError and
/// leave neither the output nor the temp file behind.
void expect_clean_io_failure(const std::string& plan, const char* tag) {
    const std::string in = write_input(std::string("sfault_") + tag + ".cnf");
    const std::string out_path =
        ::testing::TempDir() + std::string("sfault_") + tag + ".out.cnf";

    fault::ScopedFaultPlan scoped(seeded_plan(plan));
    ASSERT_TRUE(scoped.status().ok()) << scoped.status().to_string();

    StreamPreprocessor pp;
    const auto r = pp.run(in, out_path);
    ASSERT_FALSE(r.ok()) << tag << ": the injected fault must surface";
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << tag;
    EXPECT_FALSE(exists(out_path))
        << tag << ": no partial output may be left behind";
    EXPECT_FALSE(exists(out_path + ".tmp"))
        << tag << ": the temp file must be cleaned up";
    std::remove(in.c_str());
}

}  // namespace streamfault

TEST(StreamFaults, ShortWriteMidEmitLeavesNoPartialFile) {
    streamfault::expect_clean_io_failure("io-short-write=1@1", "shortwrite");
}

TEST(StreamFaults, EnospcMidEmitLeavesNoPartialFile) {
    streamfault::expect_clean_io_failure("io-enospc=1@1", "enospc");
}

TEST(StreamFaults, ReadErrorMidPassLeavesNoPartialFile) {
    streamfault::expect_clean_io_failure("io-read-error=1@2", "readerr");
}

TEST(StreamFaults, FaultyRunLeavesAPreexistingOutputIntact) {
    const std::string in = streamfault::write_input("sfault_keep.cnf");
    const std::string out_path = ::testing::TempDir() + "sfault_keep.out.cnf";
    {
        std::ofstream prev(out_path, std::ios::trunc);
        prev << "previous contents\n";
    }
    fault::ScopedFaultPlan scoped(
        streamfault::seeded_plan("io-enospc=1@1"));
    ASSERT_TRUE(scoped.status().ok());
    StreamPreprocessor pp;
    ASSERT_FALSE(pp.run(in, out_path).ok());
    std::ifstream check(out_path);
    std::string line;
    ASSERT_TRUE(std::getline(check, line));
    EXPECT_EQ(line, "previous contents")
        << "a failed run must not clobber the previous output";
    std::remove(in.c_str());
    std::remove(out_path.c_str());
}

TEST(StreamFaults, SuccessfulRunLeavesNoTempFile) {
    const std::string in = streamfault::write_input("sfault_ok.cnf");
    const std::string out_path = ::testing::TempDir() + "sfault_ok.out.cnf";
    StreamPreprocessor pp;
    const auto r = pp.run(in, out_path);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_TRUE(streamfault::exists(out_path));
    EXPECT_FALSE(streamfault::exists(out_path + ".tmp"));
    std::remove(in.c_str());
    std::remove(out_path.c_str());
}

}  // namespace
}  // namespace bosphorus
