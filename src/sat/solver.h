// CDCL SAT solver with optional native XOR reasoning.
//
// This is the in-tree substitute for the three back-end solvers evaluated in
// the paper (MiniSat, Lingeling, CryptoMiniSat5). The core implements the
// standard modern CDCL loop: two-watched-literal propagation, first-UIP
// conflict analysis with recursive clause minimisation, EVSIDS branching,
// phase saving and Luby restarts. Learnt clauses are managed by the
// in-processing engine (src/sat/inprocess/): a tiered learnt DB,
// budgeted vivification and a feature-selected search profile.
//
// Two features matter specifically for Bosphorus:
//  * a *conflict budget* (the paper bounds the in-loop solver by conflicts,
//    not time, for replicability), and
//  * an API exposing learnt unit and binary clauses, which the Bosphorus
//    loop converts into ANF value/equivalence facts (the modification the
//    authors made to CryptoMiniSat 5.6.3).
//
// With Config::enable_xor set, native XOR constraints are propagated by a
// watched-XOR scheme and a level-0 Gauss-Jordan elimination pass (see
// xor_engine.h) -- the CryptoMiniSat-like configuration.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sat/inprocess/clause_db.h"
#include "sat/inprocess/features.h"
#include "sat/inprocess/inprocess.h"
#include "sat/inprocess/vivifier.h"
#include "sat/types.h"
#include "util/timer.h"

namespace bosphorus::sat {

class XorEngine;

class Solver {
public:
    struct Config {
        bool enable_xor = false;  ///< native XOR propagation + level-0 GJE
        /// In-processing engine (vivification, tiered learnt DB, profile
        /// auto-reconfiguration). The search knobs (decays, restart unit,
        /// tier cuts) come from the profile selected per solve call.
        inprocess::InprocessConfig inprocess;
    };

    struct Stats {
        uint64_t conflicts = 0;
        uint64_t decisions = 0;
        uint64_t propagations = 0;
        uint64_t restarts = 0;
        uint64_t learnt_clauses = 0;
        uint64_t deleted_clauses = 0;
        uint64_t xor_propagations = 0;
        uint64_t vivified_literals = 0;  ///< literals removed by vivification
        uint64_t vivified_clauses = 0;   ///< clauses shrunk by vivification
        uint64_t vivify_passes = 0;      ///< vivification sweeps run
        uint64_t reconf_decisions = 0;   ///< auto profile switches applied
        uint64_t db_reductions = 0;      ///< tiered reduce sweeps
    };

    Solver() : Solver(Config{}) {}
    explicit Solver(Config cfg);
    ~Solver();

    Solver(const Solver&) = delete;
    Solver& operator=(const Solver&) = delete;

    Var new_var();
    size_t num_vars() const { return assigns_.size(); }

    /// Add a clause. Returns false if the formula became trivially UNSAT.
    bool add_clause(std::vector<Lit> lits);

    /// Add a native XOR constraint (only meaningful with Config::enable_xor;
    /// otherwise it is expanded into CNF clauses internally).
    bool add_xor(const XorConstraint& x);

    /// Load a whole CNF (creates variables as needed).
    bool load(const Cnf& cnf);

    /// Solve with an optional conflict budget (< 0: unbounded) and wall-clock
    /// timeout in seconds (< 0: none). kUnknown when a budget ran out.
    Result solve(int64_t conflict_budget = -1, double timeout_s = -1.0);

    /// Incremental solve under `assumptions`: each literal is enqueued as a
    /// pseudo-decision before real branching starts, so the search explores
    /// only assignments extending them. Returns kUnsat when the formula is
    /// unsatisfiable *under the assumptions*; okay() stays true in that case
    /// unless the formula is unsatisfiable outright. The solver remains
    /// reusable afterwards: clauses learnt in one call (always implied by
    /// the clause database alone, never by the assumptions) carry over to
    /// the next, which is what makes warm re-solves cheap.
    Result solve_assuming(const std::vector<Lit>& assumptions,
                          int64_t conflict_budget = -1,
                          double timeout_s = -1.0);

    bool okay() const { return ok_; }

    /// When the last solve_assuming call returned kUnsat with okay()
    /// still true: the assumption literal the clause database forced
    /// false (at most one entry -- the search stops at the first refuted
    /// assumption). NOTE this is a *subset* of the IPASIR "failed" set:
    /// assumptions enqueued earlier may have participated in forcing it
    /// and are not listed. Callers needing a sound failed set must treat
    /// every assumption of the refuted call as potentially involved (the
    /// backend adapters do exactly that). Empty after a SAT or
    /// outright-UNSAT call.
    const std::vector<Lit>& failed_assumptions() const {
        return failed_assumptions_;
    }

    /// Ask a running solve() to stop at its next poll point (it returns
    /// kUnknown). Safe to call from any thread; sticky until
    /// clear_interrupt(), so an interrupt that lands between solves still
    /// stops the next one.
    void interrupt() { interrupt_.store(true, std::memory_order_release); }
    /// Re-arm after interrupt(): subsequent solves run normally.
    void clear_interrupt() { interrupt_.store(false, std::memory_order_release); }
    /// True once interrupt() has been called and not yet cleared.
    bool interrupt_requested() const {
        return interrupt_.load(std::memory_order_acquire);
    }

    /// Install a callback polled periodically during solve(); returning
    /// true stops the search with kUnknown (the IPASIR terminate hook --
    /// this is how cancellation tokens reach a running solver). The
    /// callback runs on the solving thread; pass nullptr to remove.
    void set_terminate_callback(std::function<bool()> cb) {
        terminate_cb_ = std::move(cb);
    }

    /// After kSat: the satisfying assignment, indexed by variable.
    const std::vector<LBool>& model() const { return model_; }

    /// Learnt facts for Bosphorus: unit literals learnt (or implied at
    /// decision level 0) and learnt binary clauses, accumulated across all
    /// solve() calls. Units are bounded by the variable count (they live
    /// on the level-0 trail); binaries are deduplicated, so both lists
    /// stay bounded by the *distinct* facts even over the thousands of
    /// solve_assuming calls a long-lived Session makes.
    const std::vector<Lit>& learnt_units() const { return learnt_units_; }
    const std::vector<std::array<Lit, 2>>& learnt_binaries() const {
        return learnt_binaries_;
    }

    const Stats& stats() const { return stats_; }

    /// Current value of a literal under the partial assignment.
    LBool value(Lit l) const { return assigns_[l.var()] ^ l.sign(); }
    LBool value(Var v) const { return assigns_[v]; }

    // ---- in-processing observability / test hooks ----------------------

    /// Live per-tier learnt clause counts.
    const inprocess::ClauseDbManager::TierCounts& db_tier_counts() const {
        return db_mgr_.tier_counts();
    }

    /// The profile the last solve call selected (kAuto before any solve:
    /// no profile applied yet).
    inprocess::ProfileId active_profile() const { return active_profile_; }

    /// Tier-policy diagnostics; both must stay 0 (the deletion policy
    /// never even *attempts* to delete glue or reason-locked clauses).
    uint64_t db_glue_delete_vetoes() const {
        return db_mgr_.glue_delete_vetoes();
    }
    uint64_t db_locked_delete_vetoes() const {
        return db_mgr_.locked_delete_vetoes();
    }

    /// Structural clause-database invariants, checkable at any consistent
    /// point (conflict/decision boundaries; this is what the terminate
    /// callback sees): clause lists hold no deleted clauses, every listed
    /// clause is watched on exactly its first two literals, reasons of
    /// assigned variables above level 0 are live with the implied literal
    /// first, and the tier counts match a full recount.
    bool check_db_invariants() const;

    /// Force one tiered reduction sweep now. Test hook.
    void debug_force_reduce();

    /// Force one vivification pass with the given budget (no-op returning
    /// empty stats once the formula is refuted). Test hook.
    inprocess::Vivifier::PassStats debug_force_vivify(
        uint64_t propagation_budget);

private:
    friend class XorEngine;
    friend class inprocess::Vivifier;
    friend class inprocess::ClauseDbManager;
    friend struct inprocess::InstanceFeatures;

    // ---- clause storage ----------------------------------------------
    struct Clause {
        std::vector<Lit> lits;
        float activity = 0.0f;
        uint32_t lbd = 0;
        bool learnt = false;
        bool deleted = false;
        // In-processing bookkeeping. tier is kUntracked for clauses the
        // ClauseDbManager does not manage (problem clauses, XOR
        // conflict/reason clauses).
        uint8_t tier = inprocess::kUntracked;
        uint8_t used = 0;  ///< participated in a conflict since last reduce
        uint8_t idle = 0;  ///< reductions spent unused in the mid tier
    };
    using CRef = int32_t;
    static constexpr CRef kNoReason = -1;

    struct Watcher {
        CRef cref;
        Lit blocker;
    };

    // ---- in-processing --------------------------------------------------
    /// Install a named profile's knobs as the effective search parameters
    /// and tier cuts.
    void apply_profile(inprocess::ProfileId id);
    /// One budgeted vivification sweep, folding pass stats into stats_.
    void run_vivify_pass();
    /// Enough conflicts since the last pass to be worth another one?
    bool vivify_due() const;
    /// Recompute the LBD of a fully assigned clause (analyze-time hook).
    uint32_t clause_lbd(const Clause& c);

    // ---- search -------------------------------------------------------
    CRef propagate();
    void analyze(CRef confl, std::vector<Lit>& out_learnt, int& out_btlevel,
                 uint32_t& out_lbd);
    bool lit_redundant(Lit l, uint32_t abstract_levels);
    void cancel_until(int level);
    Lit pick_branch_lit();
    void record_learnt_fact(const std::vector<Lit>& clause);
    double luby(double y, int i) const;

    // ---- assignment ----------------------------------------------------
    void enqueue(Lit l, CRef reason);
    /// Level-0 assignment of v := val; flags UNSAT on contradiction.
    void enqueue_or_check(Var v, bool val);
    int decision_level() const { return static_cast<int>(trail_lim_.size()); }
    int level(Var v) const { return var_level_[v]; }

    // ---- activity -------------------------------------------------------
    void var_bump(Var v);
    void var_decay_all();
    void cla_bump(Clause& c);
    void insert_var_order(Var v);

    // ---- heap (max-heap on activity, tie-break on index) ----------------
    void heap_up(size_t i);
    void heap_down(size_t i);
    bool heap_lt(Var a, Var b) const;

    CRef alloc_clause(std::vector<Lit> lits, bool learnt);
    void attach_clause(CRef cr);
    void detach_clause(CRef cr);
    void remove_clause(CRef cr);

    Config cfg_;
    Stats stats_;
    bool ok_ = true;

    std::vector<Clause> clauses_;        // arena; CRef indexes into this
    std::vector<CRef> problem_clauses_;  // original clauses
    std::vector<CRef> learnts_;          // learnt clauses

    std::vector<std::vector<Watcher>> watches_;  // indexed by Lit raw
    std::vector<LBool> assigns_;                 // by var
    std::vector<bool> polarity_;                 // phase saving, by var
    std::vector<int> var_level_;                 // by var
    std::vector<CRef> var_reason_;               // by var
    std::vector<double> activity_;               // by var
    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;

    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    size_t qhead_ = 0;

    std::vector<Var> heap_;       // binary max-heap of decision candidates
    std::vector<int> heap_pos_;   // by var; -1 if absent

    // analyze() scratch
    std::vector<uint8_t> seen_;
    std::vector<Lit> analyze_stack_;
    std::vector<Lit> analyze_clear_;

    std::vector<LBool> model_;
    std::vector<Lit> failed_assumptions_;  // refuted by the last solve call
    std::atomic<bool> interrupt_{false};
    std::function<bool()> terminate_cb_;
    std::vector<Lit> learnt_units_;
    size_t units_reported_ = 0;  // trail prefix already exported as units
    std::vector<std::array<Lit, 2>> learnt_binaries_;
    // Dedup for learnt_binaries_ (normalised lit pair -> already recorded).
    std::unordered_set<uint64_t> binaries_seen_;

    // ---- in-processing state --------------------------------------------
    inprocess::ClauseDbManager db_mgr_{cfg_.inprocess};
    inprocess::Vivifier vivifier_;
    inprocess::ProfileId active_profile_ = inprocess::ProfileId::kAuto;
    // Effective search knobs: the active profile's values (balanced until
    // the first solve call selects one).
    inprocess::SolverProfile knobs_ =
        inprocess::profile(inprocess::ProfileId::kBalanced);
    // Opening-window LBD observation of the current call, and the carry
    // from the previous call (feeds the next static profile selection).
    uint64_t window_lbd_sum_ = 0;
    uint32_t window_lbd_count_ = 0;
    bool window_reconf_done_ = false;
    double prev_window_lbd_ = 0.0;
    inprocess::InstanceFeatures feat_;  // cached per call for the mid-solve rule
    uint64_t solve_calls_ = 0;
    uint64_t last_vivify_conflicts_ = 0;  // conflict count at the last pass
    // clause_lbd() scratch: per-decision-level stamps.
    std::vector<uint64_t> level_stamp_;
    uint64_t lbd_stamp_ = 0;

    std::unique_ptr<XorEngine> xor_engine_;
};

}  // namespace bosphorus::sat
