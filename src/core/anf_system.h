// The master ANF: a system of Boolean polynomial equations plus per-variable
// state, with ANF propagation (paper section II-A).
//
// Bosphorus keeps exactly one mutable copy of the problem. For each variable
// we track (i) its value (0/1/undetermined), (ii) its equivalence literal
// (another variable or its negation), and (iii) an occurrence list of the
// polynomials it appears in -- the occurrence-list optimisation borrowed
// from the SAT literature (paper section III-B).
//
// ANF propagation applies, to fixed point:
//   p = x            ->  x := 0
//   p = x + 1        ->  x := 1
//   p = x1...xk + 1  ->  x1 := 1, ..., xk := 1     (monomial fact)
//   p = x + y        ->  x == y                     (equivalence)
//   p = x + y + 1    ->  x == !y                    (anti-equivalence)
//   p = 1            ->  contradiction (UNSAT)
//
// Invariant: every live polynomial is *normalised* -- it mentions only
// variables that are neither fixed nor replaced by an equivalence literal.
//
// Term storage: polynomials are vectors of interned MonoIds resolved
// against the process-wide MonomialStore (anf/monomial_store.h). The store
// is shared by every AnfSystem and never rewound by one (only a whole
// solve() call gives its vocabulary back), so the snapshot/restore
// trail below never records store state: restore() rewinds equations,
// variable states and occurrence lists exactly, while monomials interned
// inside the popped scope simply persist as cached vocabulary (ids stay
// valid, content-based ordering/hashing keeps behaviour independent of
// that leftover history).
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_set>
#include <vector>

#include "anf/polynomial.h"

namespace bosphorus::core {

using anf::Monomial;
using anf::Polynomial;
using anf::Var;

/// A variable's resolved state: either a constant, or a literal
/// (root variable + optional negation).
struct VarState {
    enum class Kind { kFree, kFixed, kReplaced } kind = Kind::kFree;
    bool value = false;  // if kFixed
    Var root = 0;        // if kReplaced: this var == root ^ flip
    bool flip = false;
};

class AnfSystem {
public:
    AnfSystem(std::vector<Polynomial> polynomials, size_t num_vars);

    size_t num_vars() const { return states_.size(); }

    /// False iff the system has derived 1 = 0.
    bool okay() const { return ok_; }

    /// Add a (learnt) polynomial equation; it is normalised against current
    /// variable states, deduplicated, and propagation is run to fixed point.
    /// Returns true if the fact was new (changed the system).
    bool add_fact(const Polynomial& p);

    /// Add a *constraint* (not a derived fact): like add_fact, but the
    /// polynomial also joins the originals checked by check_solution. This
    /// is what Session::add / Session::assume feed, so models found at a
    /// scope are verified against the scope's assumptions too.
    bool add_original(const Polynomial& p);

    // ---- snapshot / restore (the Session push/pop substrate) -------------
    /// An opaque marker of the system's state at one instant. Only valid
    /// for restore() on the AnfSystem that produced it, and only in LIFO
    /// order (restoring an older snapshot invalidates newer ones).
    struct Snapshot {
        size_t n_polys = 0;
        size_t n_originals = 0;
        size_t n_trail_states = 0;
        size_t n_trail_removed = 0;
        size_t n_trail_unstored = 0;
        bool ok = true;
    };

    /// Capture the current state. The first call enables trail recording
    /// (a small per-mutation cost); propagation must be at fixed point
    /// (it always is outside propagate()).
    Snapshot snapshot();

    /// Rewind the system to exactly the state captured by `snap`:
    /// equations, variable states, occurrence lists, dedup set, originals
    /// and okay() all return to their values at snapshot() time.
    void restore(const Snapshot& snap);

    /// Stop trail recording and drop the accumulated trails. Only valid
    /// once every outstanding snapshot has been restored or abandoned
    /// (Session calls this when its last scope pops, so depth-0 work
    /// between scopes doesn't grow the trails forever). The next
    /// snapshot() re-enables recording.
    void clear_trail();

    /// Run ANF propagation until fixed point. Returns okay().
    bool propagate();

    /// Live (normalised, non-trivial) polynomial equations.
    std::vector<Polynomial> equations() const;

    /// The full system including variable states, as polynomials:
    /// fixed vars contribute x or x+1, replaced vars contribute x+y(+1).
    /// This is the "processed ANF" the tool outputs.
    std::vector<Polynomial> to_polynomials() const;

    /// Resolve a variable through equivalence chains to its terminal state.
    VarState resolve(Var v) const;

    /// Number of fixed / replaced variables.
    size_t num_fixed() const;
    size_t num_replaced() const;

    /// True iff `assignment` (indexed by var) satisfies every original
    /// equation ever added (tracked separately from the live system).
    bool check_solution(const std::vector<bool>& assignment) const;

    /// Complete a partial assignment of the free variables into a full one
    /// (fixed/replaced variables are derived; unconstrained default false).
    std::vector<bool> extend_assignment(const std::vector<bool>& free_values) const;

private:
    /// Normalise p against variable states. Returns the normalised result.
    Polynomial normalise(const Polynomial& p) const;

    /// v := value. Returns false on contradiction.
    bool assign(Var v, bool value);

    /// a == b ^ flip. Returns false on contradiction.
    bool equate(Var a, Var b, bool flip);

    /// Append p (assumed normalised) to the store, updating occurrence
    /// lists and the dedup set; enqueues it for analysis.
    void store(Polynomial p);

    /// Re-normalise the polynomial at index i and re-queue it.
    void renormalise(size_t i);

    /// Analyse polys_[i] for propagation facts.
    bool analyse(size_t i);

    /// Queue every polynomial that mentions v for re-normalisation.
    void touch(Var v);

    std::vector<Polynomial> polys_;
    std::vector<bool> removed_;
    std::vector<std::vector<uint32_t>> occ_;  // var -> polynomial indices
    std::vector<VarState> states_;
    std::unordered_set<Polynomial, anf::PolynomialHash> dedup_;
    std::vector<uint32_t> queue_;
    std::vector<bool> queued_;
    bool ok_ = true;

    std::vector<Polynomial> originals_;  // for check_solution

    // Mutation trail for restore(), recorded once the first snapshot is
    // taken: variables whose state left kFree, polynomial slots whose
    // removed_ flag flipped, and slots erased from dedup_ (renormalised
    // away). Slots themselves are immutable once stored, so truncating
    // polys_ plus replaying these three logs is an exact rewind.
    bool trail_on_ = false;
    std::vector<Var> trail_states_;
    std::vector<uint32_t> trail_removed_;
    std::vector<uint32_t> trail_unstored_;

    void mark_removed(size_t i);
    void mark_unstored(size_t i);
};

}  // namespace bosphorus::core
