// Shared harness for the Table II reproductions: run a class of instances
// through {MiniSat-like, Lingeling-like, CMS-like} x {w/o, w Bosphorus} and
// print PAR-2 scores with solved counts in the paper's layout.
//
// Built on the library facade: each instance is a bosphorus::Problem and
// each cell is a bosphorus::solve() call. Every answer is checked: a
// planted instance answered UNSAT, or a SAT/UNSAT split between two cells
// on one instance, is a wrong answer, and the bench mains exit 1 on any.
//
// Scaling: the paper uses a 5,000 s timeout and 50-500 instances per class;
// that is a multi-CPU-month budget. The harness defaults to laptop-scale
// (BENCH_INSTANCES, BENCH_TIMEOUT env vars override) -- per DESIGN.md the
// claim under test is the *shape* of the table (who wins, where Bosphorus's
// overhead shows), not the absolute numbers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bosphorus/bosphorus.h"

namespace bosphorus::bench {

struct BenchScale {
    size_t instances = 5;
    double timeout_s = 10.0;
    double bosphorus_budget_s = 4.0;
    uint64_t seed = 1;

    static BenchScale from_env(size_t default_instances = 5,
                               double default_timeout = 10.0) {
        BenchScale s;
        s.instances = default_instances;
        s.timeout_s = default_timeout;
        if (const char* v = std::getenv("BENCH_INSTANCES"))
            s.instances = std::strtoul(v, nullptr, 10);
        if (const char* v = std::getenv("BENCH_TIMEOUT"))
            s.timeout_s = std::strtod(v, nullptr);
        if (const char* v = std::getenv("BENCH_SEED"))
            s.seed = std::strtoull(v, nullptr, 10);
        s.bosphorus_budget_s = s.timeout_s * 0.4;
        return s;
    }
};

/// One ANF instance of a benchmark class.
struct AnfInstance {
    std::vector<anf::Polynomial> polys;
    size_t num_vars = 0;
    bool known_sat = true;  ///< generators produce satisfiable instances
};

/// Cross-checks every cell's verdicts on one instance set. A wrong answer
/// is a known-satisfiable instance answered UNSAT, or two cells that split
/// SAT/UNSAT on the same instance; each is reported on stderr. A solve()
/// error counts too: the cell has no answer to check.
class AnswerCheck {
public:
    /// `known_sat[i]`: instance i is satisfiable by construction.
    explicit AnswerCheck(std::vector<bool> known_sat)
        : known_sat_(std::move(known_sat)),
          first_(known_sat_.size(), {sat::Result::kUnknown, std::string()}) {}

    /// Check cell `cell`'s solve() answer on instance `i`.
    void record(size_t i, const std::string& cell,
                const Result<SolveOutcome>& run) {
        if (!run.ok()) {
            fail(i, cell, "solve error: " + run.status().to_string());
            return;
        }
        record(i, cell, run->result);
    }

    /// Check verdict `r` of cell `cell` on instance `i`.
    void record(size_t i, const std::string& cell, sat::Result r) {
        if (r == sat::Result::kUnknown) return;
        if (r == sat::Result::kUnsat && known_sat_[i])
            fail(i, cell, "UNSAT on a satisfiable instance");
        auto& [seen, by] = first_[i];
        if (seen == sat::Result::kUnknown) {
            seen = r;
            by = cell;
        } else if (seen != r) {
            const char* verdict = r == sat::Result::kSat ? "SAT" : "UNSAT";
            fail(i, cell, std::string(verdict) + " contradicts " + by);
        }
    }

    /// Wrong answers (and solve errors) recorded so far.
    size_t wrong() const { return wrong_; }

private:
    void fail(size_t i, const std::string& cell, const std::string& why) {
        ++wrong_;
        std::fprintf(stderr, "c WRONG: instance %zu, %s: %s\n", i,
                     cell.c_str(), why.c_str());
    }

    std::vector<bool> known_sat_;
    std::vector<std::pair<sat::Result, std::string>> first_;
    size_t wrong_ = 0;
};

/// Result cell: PAR-2 and solved counts, as in Table II.
struct Cell {
    double par2 = 0.0;
    size_t solved_sat = 0;
    size_t solved_unsat = 0;
};

inline SolveConfig make_config(sat::SolverKind kind, bool use_bosphorus,
                               const BenchScale& scale) {
    SolveConfig cfg;
    cfg.solver = kind;
    cfg.preprocess = use_bosphorus;
    cfg.timeout_s = scale.timeout_s;
    cfg.engine_budget_s = scale.bosphorus_budget_s;
    // Paper parameters scaled for laptop budgets: M = 20 instead of 30
    // (the 2^30 sampling budget targets the authors' large-memory nodes);
    // conflict schedule kept at the paper's values.
    cfg.engine.xl.m_budget = 20;
    cfg.engine.elimlin.m_budget = 20;
    cfg.engine.xl.degree = 1;
    cfg.engine.conv.karnaugh_k = 8;
    cfg.engine.conv.xor_cut = 5;
    cfg.engine.clause_cut = 5;
    cfg.engine.sat_conflicts_start = 10'000;
    cfg.engine.sat_conflicts_max = 100'000;
    cfg.engine.sat_conflicts_step = 10'000;
    cfg.engine.max_iterations = 16;
    return cfg;
}

/// Run one class row (w/o and w) across the three solvers and print the two
/// Table II rows. Returns the number of wrong answers (see AnswerCheck).
inline size_t run_class_row(
    const std::string& name,
    const std::function<AnfInstance(size_t)>& make_instance,
    const BenchScale& scale) {
    constexpr sat::SolverKind kKinds[] = {sat::SolverKind::kMinisatLike,
                                          sat::SolverKind::kLingelingLike,
                                          sat::SolverKind::kCmsLike};
    // Generate instances once, as facade problems.
    std::vector<Problem> problems;
    std::vector<bool> known_sat;
    for (size_t i = 0; i < scale.instances; ++i) {
        AnfInstance inst = make_instance(i);
        known_sat.push_back(inst.known_sat);
        problems.push_back(
            Problem::from_anf(std::move(inst.polys), inst.num_vars));
    }
    AnswerCheck check(std::move(known_sat));

    for (const bool with : {false, true}) {
        std::printf("%-14s %-3s", with ? "" : name.c_str(),
                    with ? "w" : "w/o");
        for (const sat::SolverKind kind : kKinds) {
            const std::string label = name + " " + sat::SolverSpec(kind).spec +
                                      (with ? " w" : " w/o");
            Cell cell;
            std::vector<SolveOutcome> outcomes;
            for (size_t i = 0; i < problems.size(); ++i) {
                const Result<SolveOutcome> run =
                    solve(problems[i], make_config(kind, with, scale));
                check.record(i, label, run);
                // A failed run scores as unsolved, so it penalises the
                // cell's PAR-2 instead of flattering it.
                outcomes.push_back(run.ok() ? *run : SolveOutcome{});
                const sat::Result r = outcomes.back().result;
                if (r == sat::Result::kSat) ++cell.solved_sat;
                if (r == sat::Result::kUnsat) ++cell.solved_unsat;
            }
            cell.par2 = par2_score(outcomes, scale.timeout_s);
            if (cell.solved_unsat > 0) {
                std::printf("  %8.1f (%2zu+%zu)", cell.par2, cell.solved_sat,
                            cell.solved_unsat);
            } else {
                std::printf("  %8.1f (%2zu)  ", cell.par2, cell.solved_sat);
            }
        }
        std::printf("\n");
    }
    return check.wrong();
}

/// Print the total wrong answers of a bench run and turn it into the exit
/// code of its main: 0 when every answer checked out, 1 otherwise.
inline int finish(size_t wrong) {
    if (wrong == 0) return 0;
    std::printf("\nWRONG ANSWERS: %zu (details on stderr)\n", wrong);
    return 1;
}

inline void print_header(const char* title, const BenchScale& scale) {
    std::printf("=== %s ===\n", title);
    std::printf("instances per class: %zu, timeout: %.0fs (paper: 5000s; "
                "PAR-2 = solved runtimes + 2x timeout per unsolved)\n",
                scale.instances, scale.timeout_s);
    std::printf("%-14s %-3s  %-15s  %-15s  %-15s\n", "class", "", "minisat-like",
                "lingeling-like", "cms-like");
}

}  // namespace bosphorus::bench
