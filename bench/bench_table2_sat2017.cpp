// Table II, SAT-2017 rows: CNF instances through the Bosphorus-as-CNF-
// preprocessor pipeline (section III-D).
//
// The competition set is not redistributable, so the in-tree generated
// suite (random 3-SAT at the threshold, pigeonhole, XOR cycles, graph
// colouring -- see src/cnfgen/) stands in. Like the paper we report an
// "all instances" row pair and a "hard subset" row pair (instances the
// plain MiniSat-like solver cannot finish in half the timeout, mirroring
// the paper's 2,500 s proxy-difficulty split of 310 -> 219 instances).
//
// Expected shape (paper): Bosphorus helps most on UNSAT instances and for
// the GJE-enabled solver (CMS5: 89+63 -> 98+77 solved).
#include <cstdio>
#include <string>
#include <vector>

#include "cnfgen/generators.h"
#include "table2_common.h"

using namespace bosphorus;
using bench::BenchScale;

namespace {

struct Row {
    double par2 = 0.0;
    size_t sat = 0, unsat = 0;
};

/// Solve the suite instances `set` (indices into `suite`) in one cell;
/// every answer goes through `check`.
Row run(const std::vector<cnfgen::SuiteInstance>& suite,
        const std::vector<size_t>& set, const char* set_name,
        sat::SolverKind kind, bool with, const BenchScale& scale,
        bench::AnswerCheck& check) {
    const std::string label = std::string(set_name) + " " +
                              sat::SolverSpec(kind).spec +
                              (with ? " w" : " w/o");
    Row row;
    std::vector<SolveOutcome> outcomes;
    for (const size_t i : set) {
        const Result<SolveOutcome> out =
            solve(Problem::from_cnf(suite[i].cnf),
                  bench::make_config(kind, with, scale));
        check.record(i, label, out);
        // A failed run scores as unsolved so it penalises PAR-2.
        outcomes.push_back(out.ok() ? *out : SolveOutcome{});
        const sat::Result r = outcomes.back().result;
        if (r == sat::Result::kSat) ++row.sat;
        if (r == sat::Result::kUnsat) ++row.unsat;
    }
    row.par2 = par2_score(outcomes, scale.timeout_s);
    return row;
}

}  // namespace

int main() {
    const BenchScale scale = BenchScale::from_env(1, 5.0);
    unsigned suite_scale = 1;
    if (const char* v = std::getenv("BENCH_SUITE_SCALE"))
        suite_scale = std::strtoul(v, nullptr, 10);

    const auto suite = cnfgen::sat2017_substitute_suite(suite_scale,
                                                        scale.seed);
    std::printf("=== Table II -- SAT-2017 substitute rows ===\n");
    std::printf("suite: %zu generated instances (families:", suite.size());
    std::string last;
    for (const auto& inst : suite) {
        if (inst.family != last) {
            std::printf(" %s", inst.family.c_str());
            last = inst.family;
        }
    }
    std::printf("), timeout %.0fs\n", scale.timeout_s);

    // No instance has a known verdict: the check is the cross-cell one,
    // with the hardness probe as one more cell.
    bench::AnswerCheck check(std::vector<bool>(suite.size(), false));
    std::vector<size_t> all;
    for (size_t i = 0; i < suite.size(); ++i) all.push_back(i);

    // Hard subset: proxy difficulty = plain minisat-like runtime, as in the
    // paper (they keep instances needing > 2,500 s; we keep > timeout / 2).
    std::vector<size_t> hard;
    for (const size_t i : all) {
        const auto probe = sat::solve_cnf(suite[i].cnf,
                                          sat::SolverKind::kMinisatLike,
                                          scale.timeout_s / 2);
        check.record(i, "hardness probe", probe.result);
        if (probe.result == sat::Result::kUnknown) hard.push_back(i);
    }
    std::printf("hard subset (minisat-like > %.0fs): %zu instances\n\n",
                scale.timeout_s / 2, hard.size());

    std::printf("%-16s %-3s  %-15s  %-15s  %-15s\n", "set", "",
                "minisat-like", "lingeling-like", "cms-like");
    constexpr sat::SolverKind kKinds[] = {sat::SolverKind::kMinisatLike,
                                          sat::SolverKind::kLingelingLike,
                                          sat::SolverKind::kCmsLike};
    struct Set {
        const char* name;
        const std::vector<size_t>* instances;
    };
    const Set sets[] = {{"SAT-sub (all)", &all}, {"SAT-sub (hard)", &hard}};
    for (const auto& set : sets) {
        for (const bool with : {false, true}) {
            std::printf("%-16s %-3s", with ? "" : set.name, with ? "w" : "w/o");
            for (const auto kind : kKinds) {
                const Row row = run(suite, *set.instances, set.name, kind,
                                    with, scale, check);
                std::printf("  %8.1f (%zu+%zu)", row.par2, row.sat, row.unsat);
            }
            std::printf("\n");
        }
    }
    std::printf(
        "\npaper shape: learning helps most on UNSAT instances and for the "
        "GJE-enabled (cms-like) solver; XOR-rich families are decided "
        "inside Bosphorus via GF(2) elimination.\n");
    return bench::finish(check.wrong());
}
