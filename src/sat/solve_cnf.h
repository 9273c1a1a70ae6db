// One-call solving front-end with the three back-end configurations used in
// the paper's Table II:
//
//   kMinisatLike   : plain CDCL (stands in for MiniSat 2.2)
//   kLingelingLike : CDCL + SatELite-style preprocessing (Lingeling)
//   kCmsLike       : CDCL + XOR recovery + Gauss-Jordan (CryptoMiniSat5)
//
// The facade also recovers native XOR constraints from plain CNF for the
// CMS-like configuration, mirroring CryptoMiniSat's xor-detection.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/solver.h"
#include "sat/types.h"

namespace bosphorus::sat {

enum class SolverKind { kMinisatLike, kLingelingLike, kCmsLike };

/// The back end used when none is specified, everywhere (CLI --solver
/// default, SolveConfig): the CMS-like configuration.
inline constexpr const char* kDefaultSolverName = "cms";

/// What one CNF-level solve produced. (Named CnfSolveOutcome -- not
/// SolveOutcome -- so the public bosphorus::SolveOutcome of
/// include/bosphorus/solve.h is never shadowed by this internal type.)
struct CnfSolveOutcome {
    Result result = Result::kUnknown;
    std::vector<LBool> model;  // valid iff result == kSat
    Solver::Stats stats;
    double seconds = 0.0;
};

/// Solve `cnf` with the given configuration, wall-clock timeout (seconds,
/// < 0 for none) and conflict budget (< 0 for unbounded).
///
/// Deprecated: the closed SolverKind axis is superseded by the pluggable
/// back-end interface of include/bosphorus/sat_backend.h (the registry's
/// "minisat"/"lingeling"/"cms" backends reproduce these three
/// configurations exactly; solve_cnf_with is the drop-in replacement).
/// Kept as the equivalence oracle the backend tests compare against.
CnfSolveOutcome solve_cnf(const Cnf& cnf, SolverKind kind,
                          double timeout_s = -1,
                          int64_t conflict_budget = -1);

/// Detect XOR constraints encoded as full 2^(l-1)-clause groups over the
/// same variable set (sizes 2..max_len). Clauses are left in place; the
/// recovered XORs are returned.
std::vector<XorConstraint> recover_xors(const Cnf& cnf, size_t max_len = 4);

/// Append `x` to `cnf` as plain clauses, cutting constraints longer than
/// `cut` with fresh auxiliary variables (allocated from cnf.num_vars) to
/// bound the 2^(l-1) clause blow-up. The one XOR-to-CNF expansion, shared
/// by Solver::add_xor (without the native engine) and the dimacs-exec
/// backend's DIMACS writer.
void append_xor_as_clauses(Cnf& cnf, const XorConstraint& x, size_t cut = 5);

/// True iff `model` satisfies every clause and XOR of `cnf`.
bool model_satisfies(const Cnf& cnf, const std::vector<LBool>& model);

}  // namespace bosphorus::sat
