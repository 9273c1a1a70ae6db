// Tiered learnt-clause database management (the reducedb.cpp shape).
//
// Learnt clauses live in one of three tiers:
//  * core  (LBD <= core_lbd_cut): proven-valuable glue clauses; never
//    deleted. Clauses are promoted here when conflict analysis observes
//    an improved LBD below the cut.
//  * mid   (LBD <= mid_lbd_cut): kept across reductions while they keep
//    participating in conflicts; after mid_idle_limit idle reductions
//    they are demoted to local.
//  * local (everything else): the churn tier. When it outgrows the
//    persistent cap, the unused half with the worst (LBD, activity) is
//    deleted; clauses that were used since the last reduction are
//    promoted to mid instead (survival promotion).
//
// The cap and all tier state persist across solve calls: a warm
// Session's live solver garbage collects its accumulated learnts instead
// of resetting the limit (and thus hoarding) on every re-solve.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sat/inprocess/inprocess.h"

namespace bosphorus::sat {
class Solver;
}  // namespace bosphorus::sat

namespace bosphorus::sat::inprocess {

/// Clause tier tags, stored in Solver::Clause::tier. kUntracked marks
/// clauses the manager does not own: problem clauses, XOR conflict/reason
/// clauses (allocated learnt but never entering the learnt list).
enum Tier : uint8_t { kCore = 0, kMid = 1, kLocal = 2, kUntracked = 3 };

class ClauseDbManager {
public:
    explicit ClauseDbManager(const InprocessConfig& cfg);
    ~ClauseDbManager();

    ClauseDbManager(const ClauseDbManager&) = delete;
    ClauseDbManager& operator=(const ClauseDbManager&) = delete;

    /// Per-tier live clause counts (maintained incrementally; exact).
    struct TierCounts {
        size_t core = 0;
        size_t mid = 0;
        size_t local = 0;
        size_t total() const { return core + mid + local; }
    };

    /// Tier for a freshly learnt clause of this LBD.
    Tier classify(uint32_t lbd) const;

    /// Record a newly allocated learnt clause (updates the counts).
    void on_learnt(uint32_t lbd);

    /// Conflict analysis observed an improved LBD for a clause currently
    /// in `old_tier`. Returns the (possibly promoted) tier.
    Tier on_lbd_improved(Tier old_tier, uint32_t new_lbd);

    /// A vivified clause shrank; re-classify upward only (never demote a
    /// clause for getting stronger).
    Tier on_vivified(Tier old_tier, uint32_t new_lbd);

    /// A clause left the database outside reduce() (vivification proved
    /// it satisfied, or it collapsed to a unit).
    void on_removed(Tier tier);

    /// True when the local tier outgrew the persistent cap and a reduce()
    /// sweep is due. `problem_clauses` seeds the initial cap the first
    /// time it is consulted (max(problem/3, local_cap_min)); it is seeded
    /// once, never reset per call.
    bool should_reduce(size_t problem_clauses);

    /// One tiered reduction sweep over s.learnts_ (see the file comment).
    /// Requires: no conflict in flight. Reason-locked clauses and
    /// LBD <= 2 glue are never deleted regardless of tier bookkeeping.
    /// Grows the cap and publishes tier gauges to counters().
    void reduce(Solver& s);

    const TierCounts& tier_counts() const { return counts_; }
    uint64_t reductions() const { return reductions_; }
    double local_cap() const { return local_cap_; }

    /// Apply a named profile's tier knobs (cuts and cap growth).
    void apply_profile(const SolverProfile& p);

    // Diagnostics the "glue/locked never deleted" tests pin: these count
    // *attempts* the policy had to veto and must stay 0 forever.
    uint64_t glue_delete_vetoes() const { return glue_vetoes_; }
    uint64_t locked_delete_vetoes() const { return locked_vetoes_; }

private:
    void publish_gauges();

    InprocessConfig cfg_;
    /// The tier cuts and cap growth in effect: balanced until the
    /// solver's first profile selection.
    SolverProfile profile_ = profile(ProfileId::kBalanced);
    TierCounts counts_;
    TierCounts published_;  ///< last gauge report to counters()
    double local_cap_ = 0;  ///< 0 = not yet seeded
    uint64_t reductions_ = 0;
    uint64_t glue_vetoes_ = 0;
    uint64_t locked_vetoes_ = 0;
};

}  // namespace bosphorus::sat::inprocess
