// Named solver configurations and the feature-driven selection rule.
//
// CryptoMiniSat ships dozens of "reconf" configurations and a trained
// predictor (scripts/reconf.py) that maps cheap instance features onto
// one of them. We reproduce the shape with a hand-rolled decision rule
// over four named profiles -- no ML dependency, fully deterministic, so
// warm-Session trajectories stay replayable. A profile bundles the
// search knobs (restart pacing, activity decay) with the in-processing
// knobs (learnt-DB tier cuts, vivification cadence) that
// clause_db.h/vivifier.h consume.
#pragma once

#include <cstdint>

namespace bosphorus::sat::inprocess {

struct InstanceFeatures;

/// The named configurations. kAuto names no configuration: it is what
/// Solver::active_profile() reports before the first solve call has run
/// select_profile().
enum class ProfileId : uint8_t {
    kAuto = 0,      ///< no profile applied yet
    kBalanced,      ///< the paper-default middle ground
    kCryptoXor,     ///< XOR-dense crypto instances: patient, deep search
    kAgileRestart,  ///< propagation-heavy instances: rapid restarts
    kHeavyTail,     ///< learnt-clause floods: aggressive DB management
};

/// One named configuration: every knob a profile sets. This table is the
/// only place these values live.
struct SolverProfile {
    const char* name;      ///< stable identifier (profile_name())
    double var_decay;      ///< EVSIDS decay factor
    double clause_decay;   ///< learnt clause activity decay
    int restart_base;      ///< Luby restart unit (conflicts)
    uint32_t core_lbd_cut; ///< LBD <= this: core tier, never deleted
    uint32_t mid_lbd_cut;  ///< LBD <= this: mid tier, survival-protected
    uint32_t vivify_restart_interval;  ///< vivify every Nth restart
    uint64_t vivify_propagation_budget;  ///< per vivification pass
    double local_cap_growth;  ///< local-tier cap growth per reduction
};

/// The table entry for a *named* profile (kBalanced..kHeavyTail).
/// kAuto has no table entry; passing it is a programming error (asserts
/// in debug, returns kBalanced's entry in release).
const SolverProfile& profile(ProfileId id);

/// The hand-rolled decision rule (the reconf.py stand-in): map cheap
/// instance features onto one of the four named profiles. Deterministic;
/// documented in docs/architecture.md ("In-processing").
ProfileId select_profile(const InstanceFeatures& f);

/// Stable name for any ProfileId ("auto", "balanced", ...).
const char* profile_name(ProfileId id);

}  // namespace bosphorus::sat::inprocess
