/// \file
/// The pluggable learning-technique interface of the Engine loop.
///
/// The paper (section V) stresses that new solving techniques "can be
/// plugged as components into the workflow". The `Engine` realises that:
/// it iterates an *ordered registry* of `Technique` objects, each
/// implementing one `step()` of fact learning against the master ANF. XL,
/// ElimLin, the optional Groebner reduction and the conflict-bounded SAT
/// step are all shipped as such plugins (see the make_*_technique
/// factories); installing a new technique -- a no-op, a parallel worker,
/// a remote call -- requires no change to the engine loop.
///
/// Thread safety: a Technique instance belongs to one Engine and is
/// stepped by one thread at a time; techniques needing cross-run state
/// reset it in begin_run(). Long-running steps must poll
/// FactSink::cancelled() (or pass the token to the core loops) so batch
/// shutdown, portfolio cancellation and user interrupts stay prompt.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anf/polynomial.h"
#include "bosphorus/status.h"
#include "core/anf_to_cnf.h"
#include "core/elimlin.h"
#include "core/groebner.h"
#include "core/xl.h"
#include "runtime/cancellation.h"
#include "sat/types.h"
#include "util/rng.h"

namespace bosphorus::core {
class AnfSystem;
}  // namespace bosphorus::core

namespace bosphorus::runtime {
class SharedFactPool;  // src/runtime/fact_exchange.h
}  // namespace bosphorus::runtime

namespace bosphorus {

/// The channel through which a technique feeds learnt facts back into the
/// master ANF (propagation runs immediately), plus the per-step engine
/// context a technique may consult: the shared RNG, the remaining time
/// budget and the outer-loop iteration number.
class FactSink {
public:
    /// Built by the Engine before every technique step. `cancel` folds the
    /// engine's cancellation token and the user's interrupt callback into
    /// one stop signal (see cancel_token()); `warm` is the Session's
    /// warm-base hint (see warm_base_valid()).
    FactSink(core::AnfSystem& sys, Rng& rng, double time_remaining_s,
             size_t iteration, int verbosity,
             runtime::CancellationToken cancel = {}, bool warm = false,
             bool coop_publish_base = true, bool coop_publish_warm = true)
        : sys_(sys),
          rng_(rng),
          time_remaining_s_(time_remaining_s),
          iteration_(iteration),
          verbosity_(verbosity),
          cancel_(std::move(cancel)),
          warm_(warm),
          coop_publish_base_(coop_publish_base),
          coop_publish_warm_(coop_publish_warm) {}

    /// Add a learnt polynomial fact (an equation fact = 0). Returns true
    /// iff the fact was new, i.e. changed the system.
    bool add(const anf::Polynomial& fact);

    /// Facts offered so far in this step.
    size_t seen() const { return seen_; }
    /// Facts that were new (changed the system) so far in this step.
    size_t fresh() const { return fresh_; }

    /// False once the system has derived 1 = 0 (the instance is UNSAT);
    /// techniques should stop feeding facts at that point.
    bool okay() const;

    /// The system under processing (read access for techniques that need
    /// more than `equations()`, e.g. the SAT step's CNF conversion).
    const core::AnfSystem& system() const { return sys_; }

    /// The run's RNG: the one deterministic randomness source techniques
    /// may draw from (subsampling, tie-breaking).
    Rng& rng() const { return rng_; }
    /// Wall-clock remaining in the engine's time budget at step start.
    double time_remaining_s() const { return time_remaining_s_; }
    /// The outer-loop iteration this step belongs to (0-based).
    size_t iteration() const { return iteration_; }
    /// The engine's logging verbosity (EngineConfig::verbosity).
    int verbosity() const { return verbosity_; }

    /// The engine's stop signal for this step: cancelled when the run's
    /// cancellation token fires (batch shutdown, portfolio loser) or the
    /// user's interrupt callback returns true. Long-running techniques
    /// must hand this to their core loops (run_xl/run_elimlin/...) or poll
    /// `cancelled()` at their own iteration boundaries so that
    /// cancellation lands within one iteration, not one step.
    const runtime::CancellationToken& cancel_token() const { return cancel_; }
    /// Shorthand for cancel_token().cancelled().
    bool cancelled() const { return cancel_.cancelled(); }

    /// True iff the driving Session guarantees that the base system last
    /// handed to Technique::bind_base, conjoined with the literals of the
    /// variables currently fixed in system(), is logically equivalent to
    /// the live system -- i.e. every constraint above the base entered as
    /// an assumption, not a free-form equation. Techniques holding warm
    /// per-base state (the incremental SAT step's live solver) may then
    /// reuse it and pass the fixed-var literals as native assumptions;
    /// when false they must fall back to their cold path. One-shot
    /// Engine::run always reports false.
    bool warm_base_valid() const { return warm_; }

    /// True iff the system under processing IS the shared base problem
    /// (no pushes, no assumptions, no extra constraints): only then may a
    /// cooperative SAT step publish cold-path harvests to the shared
    /// pool, because those are consequences of the *current* system. See
    /// src/runtime/fact_exchange.h for the soundness contract.
    bool coop_publish_base() const { return coop_publish_base_; }

    /// True iff the base the persistent warm solver was last bound to is
    /// the shared base problem. The warm solver's clause database only
    /// ever contains consequences of its bound base (assumptions never
    /// enter it), so under this flag its learnt exports are publishable
    /// at ANY scope -- this is what lets cooperative sweep workers share
    /// while deep in assumption scopes.
    bool coop_publish_warm() const { return coop_publish_warm_; }

    /// Cooperative-exchange tallies for this step, folded into
    /// Report::facts_imported / facts_published by the session loop.
    /// Techniques that import/publish through a SharedFactPool call these.
    void count_coop_imported(size_t n) { coop_imported_ += n; }
    void count_coop_published(size_t n) { coop_published_ += n; }
    size_t coop_imported() const { return coop_imported_; }
    size_t coop_published() const { return coop_published_; }

private:
    core::AnfSystem& sys_;
    Rng& rng_;
    double time_remaining_s_;
    size_t iteration_;
    int verbosity_;
    runtime::CancellationToken cancel_;
    bool warm_ = false;
    bool coop_publish_base_ = true;
    bool coop_publish_warm_ = true;
    size_t seen_ = 0;
    size_t fresh_ = 0;
    size_t coop_imported_ = 0;
    size_t coop_published_ = 0;
};

/// What one technique step accomplished.
struct StepReport {
    /// Non-OK aborts the whole engine run with this status.
    Status status;

    /// Facts produced outside the sink. Techniques that deposit through
    /// the sink can leave this 0; the engine folds the sink's own
    /// counters in.
    size_t facts_seen = 0;
    size_t facts_fresh = 0;  ///< ... of which changed the system

    /// Set when the technique decided the instance outright. kSat requires
    /// `solution`; kUnknown means "stop the loop without a verdict" (e.g. a
    /// model was found but failed verification). UNSAT discoveries are
    /// normally signalled by feeding the fact 1 = 0 through the sink.
    std::optional<sat::Result> decided;
    std::vector<bool> solution;  ///< iff decided == kSat

    /// True iff this step changed the system.
    bool progressed() const { return facts_fresh > 0; }
};

/// One pluggable learning step. Implementations must be reusable across
/// `Engine::run` / `Session::solve` calls. The lifecycle contract:
///
///  - `begin_run()` before a *cold* run (every Engine::run; a Session's
///    first solve) -- reset all cross-run state.
///  - `reset_for_resolve()` before every *warm* re-solve of a persistent
///    Session -- reset per-solve transients, but cross-solve state built
///    for the bound base (a live SAT solver, cached matrices) may be
///    kept. The default delegates to begin_run(), so stateless techniques
///    need no change.
///  - `bind_base(base, n)` whenever a Session (re)binds the technique to
///    a persistent base system (at construction, and again after the
///    scope-0 system gains new constraints). Techniques may precompute
///    per-base state here; within a step they should only use it when
///    `FactSink::warm_base_valid()` is true.
class Technique {
public:
    virtual ~Technique() = default;

    /// Stable identifier, e.g. "xl"; used for per-technique fact tallies.
    virtual std::string name() const = 0;

    /// Run one pass over the system, feeding learnt facts through `sink`.
    virtual StepReport step(core::AnfSystem& sys, FactSink& sink) = 0;

    /// Called once at the start of every cold run (see the class comment).
    virtual void begin_run() {}

    /// Called before every warm re-solve of a persistent Session; default
    /// behaves like a fresh run.
    virtual void reset_for_resolve() { begin_run(); }

    /// Bind to a persistent base system: `base` is the Session's scope-0
    /// processed ANF over `num_vars` variables. Default: ignore.
    virtual void bind_base(const std::vector<anf::Polynomial>& base,
                           size_t num_vars) {
        (void)base;
        (void)num_vars;
    }
};

// ---- built-in techniques (the paper's loop, as plugins) -------------------

/// eXtended Linearization (paper section II-B) as a Technique.
std::unique_ptr<Technique> make_xl_technique(const core::XlConfig& cfg);
/// ElimLin (paper section II-C) as a Technique.
std::unique_ptr<Technique> make_elimlin_technique(
    const core::ElimLinConfig& cfg);
/// Degree-bounded F4/Buchberger reduction (paper section V) as a
/// Technique.
std::unique_ptr<Technique> make_groebner_technique(
    const core::GroebnerConfig& cfg);

/// Conflict-bounded SAT probing (paper section III-E): converts the current
/// system to CNF, runs a CDCL solver under a conflict budget, and harvests
/// learnt units / equivalences as linear ANF facts. The budget escalates
/// from `conflicts_start` by `conflicts_step` (up to `conflicts_max`) on
/// steps that learn nothing new.
struct SatTechniqueConfig {
    core::Anf2CnfConfig conv;       ///< conversion parameters (K, L)
    bool native_xor = true;         ///< in-loop solver uses XOR + GJE
    int64_t conflicts_start = 10'000;  ///< initial conflict budget C
    int64_t conflicts_max = 100'000;   ///< budget ceiling
    int64_t conflicts_step = 10'000;   ///< escalation on fact-free steps
    /// Also harvest general learnt binary clauses as quadratic facts.
    bool harvest_binary_clauses = false;
    /// In-loop solver back end: empty selects the built-in native solver
    /// (configured by `native_xor`); any registered
    /// bosphorus/sat_backend.h spec ("minisat", "dimacs-exec:kissat",
    /// ...) routes the step through that backend instead. Fact harvesting
    /// then uses whatever the backend can export (external processes
    /// export nothing; the step still decides SAT/UNSAT).
    std::string backend;
    /// Cooperative fact exchange (src/runtime/fact_exchange.h): when set,
    /// the step imports foreign learnt units/binaries as clauses into its
    /// solver before every solve round, and publishes its own learnt-fact
    /// harvest (cold-path harvests only when FactSink::coop_publish_base()
    /// holds -- see there). Null keeps the isolated path.
    std::shared_ptr<runtime::SharedFactPool> fact_pool;
    unsigned coop_worker = 0;  ///< this worker's id in the pool
};

/// The conflict-bounded SAT step (see SatTechniqueConfig) as a Technique.
std::unique_ptr<Technique> make_sat_technique(const SatTechniqueConfig& cfg);

}  // namespace bosphorus
