// In-processing engine for the native CDCL core -- configuration and the
// process-global observability counters.
//
// The subsystem has three legs, mirroring CryptoMiniSat's in-processing
// stack:
//  * Vivifier (vivifier.h): strengthens/shrinks clauses at restart
//    boundaries under a propagation budget (clausevivifier.cpp).
//  * ClauseDbManager (clause_db.h): a three-tier core/mid/local learnt-DB
//    policy with glue protection, survival promotion and a *persistent*
//    cap, so clause management carries across warm Session::solve calls
//    instead of resetting per call (reducedb.cpp).
//  * profiles.h/features.h: four named configurations, one picked per
//    solve by a hand-rolled feature rule (the scripts/reconf.py shape,
//    no ML).
//
// Everything is deterministic: given (formula, config, call sequence) the
// vivification passes, reductions and reconfiguration decisions replay
// bit-for-bit, which keeps the warm-vs-cold differential gates of
// bench_incremental meaningful.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sat/inprocess/profiles.h"

namespace bosphorus::sat::inprocess {

/// The in-processing knobs that are not part of a profile, embedded in
/// Solver::Config. The profile knobs (search parameters, tier cuts,
/// vivification cadence and budget) live only in the profile table of
/// profiles.cpp and are selected per solve call.
struct InprocessConfig {
    // ---- vivification ------------------------------------------------------
    bool vivify = true;  ///< run the Vivifier at restart boundaries
    /// Clauses longer than this are skipped (budget goes further on the
    /// short clauses propagation actually visits).
    uint32_t vivify_max_clause_size = 64;
    bool vivify_irredundant = true;  ///< also strengthen problem clauses
    /// Skip a scheduled pass unless this many conflicts happened since
    /// the last one: re-vivifying an unchanged DB is pure overhead, which
    /// matters on the short solves of a warm assumption sweep.
    uint64_t vivify_min_conflicts = 300;

    // ---- tiered learnt DB --------------------------------------------------
    /// Reductions a mid clause may sit unused before demotion to local.
    uint32_t mid_idle_limit = 2;
    /// Floor of the local-tier cap (the persistent reduce trigger).
    size_t local_cap_min = 1000;

    /// Conflicts of the opening LBD window feeding
    /// InstanceFeatures::avg_first_window_lbd.
    uint32_t window_lbd_conflicts = 100;
};

/// Process-global in-processing counters, read through by bosphorusd
/// METRICS (the resilience_counters() pattern). The tier_* entries are
/// live gauges summed across all live solvers: each ClauseDbManager
/// reports deltas at reduce boundaries and unregisters its last report on
/// destruction.
struct InprocessCounters {
    std::atomic<uint64_t> vivified_literals{0};  ///< literals removed
    std::atomic<uint64_t> vivified_clauses{0};   ///< clauses shrunk
    std::atomic<uint64_t> vivify_deleted{0};     ///< clauses proved satisfied
    std::atomic<uint64_t> vivify_passes{0};      ///< vivification sweeps run
    std::atomic<uint64_t> reconf_decisions{0};   ///< auto profile switches
    std::atomic<uint64_t> db_reductions{0};      ///< tiered reduce sweeps
    std::atomic<int64_t> tier_core{0};   ///< live core-tier clauses
    std::atomic<int64_t> tier_mid{0};    ///< live mid-tier clauses
    std::atomic<int64_t> tier_local{0};  ///< live local-tier clauses
};

/// The process-global instance (never destroyed; safe from any thread).
InprocessCounters& counters();

}  // namespace bosphorus::sat::inprocess
