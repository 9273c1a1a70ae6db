#include "sat/solve_cnf.h"

#include <algorithm>
#include <map>

#include "sat/preprocess.h"
#include "util/timer.h"

namespace bosphorus::sat {

void append_xor_as_clauses(Cnf& cnf, const XorConstraint& x, size_t cut) {
    std::vector<Var> work = x.vars;
    const bool rhs = x.rhs;
    while (work.size() > cut) {
        // a ^ b ^ rest = rhs  ->  t = a ^ b;  t ^ rest = rhs
        const Var a = work[0], b = work[1];
        const Var t = cnf.new_var();
        // t ^ a ^ b = 0 as CNF: forbid the odd-parity assignments.
        cnf.add_clause({mk_lit(t, true), mk_lit(a, false), mk_lit(b, false)});
        cnf.add_clause({mk_lit(t, true), mk_lit(a, true), mk_lit(b, true)});
        cnf.add_clause({mk_lit(t, false), mk_lit(a, false), mk_lit(b, true)});
        cnf.add_clause({mk_lit(t, false), mk_lit(a, true), mk_lit(b, false)});
        work.erase(work.begin(), work.begin() + 2);
        work.insert(work.begin(), t);
    }
    const size_t l = work.size();
    if (l == 0) {
        if (rhs) cnf.add_clause({});  // 0 = 1: the empty clause
        return;
    }
    // Enumerate all assignments of the short XOR with the wrong parity.
    for (uint32_t bits = 0; bits < (1u << l); ++bits) {
        bool parity = false;
        for (size_t i = 0; i < l; ++i) parity ^= (bits >> i) & 1;
        if (parity == rhs) continue;  // satisfying assignment, allowed
        std::vector<Lit> clause;
        clause.reserve(l);
        for (size_t i = 0; i < l; ++i)
            clause.push_back(mk_lit(work[i], ((bits >> i) & 1) != 0));
        cnf.add_clause(std::move(clause));
    }
}

std::vector<XorConstraint> recover_xors(const Cnf& cnf, size_t max_len) {
    // Group clauses by their sorted variable set; a set of l variables
    // encodes an XOR iff exactly the 2^(l-1) clauses of one sign-parity are
    // all present.
    std::map<std::vector<Var>, std::vector<const std::vector<Lit>*>> groups;
    for (const auto& clause : cnf.clauses) {
        if (clause.size() < 2 || clause.size() > max_len) continue;
        std::vector<Var> vars;
        vars.reserve(clause.size());
        for (Lit l : clause) vars.push_back(l.var());
        std::sort(vars.begin(), vars.end());
        if (std::adjacent_find(vars.begin(), vars.end()) != vars.end())
            continue;  // duplicate var in clause
        groups[std::move(vars)].push_back(&clause);
    }

    std::vector<XorConstraint> xors;
    for (const auto& [vars, clauses] : groups) {
        const size_t l = vars.size();
        const size_t need = 1ull << (l - 1);
        if (clauses.size() < need) continue;
        // Partition by parity of the number of negated literals.
        for (int parity = 0; parity <= 1; ++parity) {
            // Collect the distinct sign patterns with this parity.
            std::vector<uint32_t> patterns;
            for (const auto* cl : clauses) {
                uint32_t pattern = 0;
                int negs = 0;
                for (Lit lit : *cl) {
                    const size_t pos =
                        std::lower_bound(vars.begin(), vars.end(), lit.var()) -
                        vars.begin();
                    if (lit.sign()) {
                        pattern |= 1u << pos;
                        ++negs;
                    }
                }
                if (negs % 2 == parity) patterns.push_back(pattern);
            }
            std::sort(patterns.begin(), patterns.end());
            patterns.erase(std::unique(patterns.begin(), patterns.end()),
                           patterns.end());
            if (patterns.size() == need) {
                // A clause with negated-literal parity p forbids an
                // assignment of parity p, so the XOR's rhs is p ^ 1.
                XorConstraint x;
                x.vars = vars;
                x.rhs = (parity ^ 1) != 0;
                xors.push_back(std::move(x));
            }
        }
    }
    return xors;
}

bool model_satisfies(const Cnf& cnf, const std::vector<LBool>& model) {
    auto lit_true = [&](Lit l) {
        if (l.var() >= model.size()) return false;
        return (model[l.var()] == LBool::kTrue) != l.sign();
    };
    for (const auto& clause : cnf.clauses) {
        bool sat = false;
        for (Lit l : clause) {
            if (lit_true(l)) { sat = true; break; }
        }
        if (!sat) return false;
    }
    for (const auto& x : cnf.xors) {
        bool parity = false;
        for (Var v : x.vars)
            parity ^= (v < model.size() && model[v] == LBool::kTrue);
        if (parity != x.rhs) return false;
    }
    return true;
}

CnfSolveOutcome solve_cnf(const Cnf& cnf, SolverKind kind, double timeout_s,
                       int64_t conflict_budget) {
    Timer timer;
    CnfSolveOutcome out;

    Cnf work = cnf;
    Preprocessor prep;
    if (kind == SolverKind::kLingelingLike) {
        if (!prep.simplify(work)) {
            out.result = Result::kUnsat;
            out.seconds = timer.seconds();
            return out;
        }
    }
    if (kind == SolverKind::kCmsLike && work.xors.empty()) {
        work.xors = recover_xors(work);
    }

    Solver::Config cfg;
    cfg.enable_xor = (kind == SolverKind::kCmsLike);
    Solver solver(cfg);
    if (!solver.load(work)) {
        out.result = Result::kUnsat;
        out.stats = solver.stats();
        out.seconds = timer.seconds();
        return out;
    }
    out.result = solver.solve(conflict_budget, timeout_s);
    out.stats = solver.stats();
    if (out.result == Result::kSat) {
        out.model = solver.model();
        out.model.resize(std::max(out.model.size(),
                                  static_cast<size_t>(cnf.num_vars)),
                         LBool::kFalse);
        if (kind == SolverKind::kLingelingLike) prep.extend_model(out.model);
        for (auto& v : out.model)
            if (v == LBool::kUndef) v = LBool::kFalse;
    }
    out.seconds = timer.seconds();
    return out;
}

}  // namespace bosphorus::sat
