// The four built-in learning techniques, packaged as Engine plugins.
#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "bosphorus/sat_backend.h"
#include "bosphorus/technique.h"
#include "core/anf_system.h"
#include "runtime/fact_exchange.h"
#include "sat/solver.h"
#include "util/log.h"

namespace bosphorus {

using anf::Polynomial;
using anf::Var;

namespace {

/// Feed a batch of facts through the sink, stopping on contradiction.
void deposit(FactSink& sink, const std::vector<Polynomial>& facts) {
    for (const auto& f : facts) {
        sink.add(f);
        if (!sink.okay()) break;
    }
}

class XlTechnique final : public Technique {
public:
    explicit XlTechnique(const core::XlConfig& cfg) : cfg_(cfg) {}
    std::string name() const override { return "xl"; }

    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        core::XlStats stats;
        const auto facts = core::run_xl(sys.equations(), cfg_, sink.rng(),
                                        &stats, sink.cancel_token());
        deposit(sink, facts);
        Log{sink.verbosity()}.info(
            2, "iter %zu XL: %zu rows, %zu cols, %zu facts (%zu new)",
            sink.iteration(), stats.expanded_rows, stats.columns, facts.size(),
            sink.fresh());
        return {};
    }

private:
    core::XlConfig cfg_;
};

class ElimLinTechnique final : public Technique {
public:
    explicit ElimLinTechnique(const core::ElimLinConfig& cfg) : cfg_(cfg) {}
    std::string name() const override { return "elimlin"; }

    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        core::ElimLinStats stats;
        const auto facts = core::run_elimlin(sys.equations(), cfg_,
                                             sink.rng(), &stats,
                                             sink.cancel_token());
        deposit(sink, facts);
        Log{sink.verbosity()}.info(
            2, "iter %zu ElimLin: %zu iters, %zu facts (%zu new)",
            sink.iteration(), stats.iterations, facts.size(), sink.fresh());
        return {};
    }

private:
    core::ElimLinConfig cfg_;
};

class GroebnerTechnique final : public Technique {
public:
    explicit GroebnerTechnique(const core::GroebnerConfig& cfg) : cfg_(cfg) {}
    std::string name() const override { return "groebner"; }

    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        core::GroebnerStats stats;
        const auto facts = core::run_groebner(sys.equations(), cfg_,
                                              sink.rng(), &stats,
                                              sink.cancel_token());
        deposit(sink, facts);
        Log{sink.verbosity()}.info(
            2, "iter %zu Groebner: %zu spairs, %zu facts (%zu new)",
            sink.iteration(), stats.spairs_formed, facts.size(), sink.fresh());
        return {};
    }

private:
    core::GroebnerConfig cfg_;
};

/// Learnt binary clauses pair up into equivalences: (a|b) & (!a|!b) means
/// a == !b, and (a|!b) & (!a|b) means a == b. Returns linear polynomials.
std::vector<Polynomial> equivalences_from_binaries(
    const std::vector<std::array<sat::Lit, 2>>& binaries, size_t num_anf_vars) {
    // Key: unordered variable pair; value: bitmask of seen sign patterns.
    std::map<std::pair<sat::Var, sat::Var>, unsigned> seen;
    for (const auto& b : binaries) {
        sat::Lit l0 = b[0], l1 = b[1];
        if (l0.var() > l1.var()) std::swap(l0, l1);
        if (l0.var() >= num_anf_vars || l1.var() >= num_anf_vars) continue;
        if (l0.var() == l1.var()) continue;
        const unsigned pattern =
            (l0.sign() ? 1u : 0u) | (l1.sign() ? 2u : 0u);
        seen[{l0.var(), l1.var()}] |= 1u << pattern;
    }
    std::vector<Polynomial> out;
    for (const auto& [vars, mask] : seen) {
        const auto [a, b] = vars;
        // patterns: 0 = (a|b), 1 = (!a|b), 2 = (a|!b), 3 = (!a|!b)
        const bool anti = (mask & (1u << 0)) && (mask & (1u << 3));
        const bool equal = (mask & (1u << 1)) && (mask & (1u << 2));
        if (anti) {
            // a + b + 1 = 0
            out.push_back(Polynomial::variable(a) + Polynomial::variable(b) +
                          Polynomial::constant(true));
        }
        if (equal) {
            out.push_back(Polynomial::variable(a) + Polynomial::variable(b));
        }
    }
    return out;
}

/// Shared kSat epilogue of every SAT-step flavour (native/backend x
/// cold/live): build the assignment from `value_at(v)`, verify it
/// against the live system, and either decide kSat with the solution or
/// halt without a verdict. One definition so the four paths cannot
/// drift.
template <typename ValueAt>
void decide_from_model(core::AnfSystem& sys, size_t num_vars,
                       ValueAt value_at, StepReport& report) {
    std::vector<bool> assignment(num_vars, false);
    for (Var v = 0; v < num_vars; ++v) assignment[v] = value_at(v);
    if (sys.check_solution(assignment)) {
        report.decided = sat::Result::kSat;
        report.solution = std::move(assignment);
    } else {
        // Model fails verification: halt without a verdict.
        report.decided = sat::Result::kUnknown;
    }
}

class SatTechnique final : public Technique {
public:
    explicit SatTechnique(const SatTechniqueConfig& cfg)
        : cfg_(cfg), conflict_budget_(cfg.conflicts_start) {}
    std::string name() const override { return "sat"; }

    /// The native solver configuration every native path (persistent live
    /// solver and per-step cold solver) is built from; one definition so
    /// warm and cold cannot drift.
    sat::Solver::Config solver_config() const {
        sat::Solver::Config scfg;
        scfg.enable_xor = cfg_.native_xor;
        return scfg;
    }

    void begin_run() override { conflict_budget_ = cfg_.conflicts_start; }

    /// Warm re-solve: restart the conflict-budget schedule but keep the
    /// live solver (and everything it has learnt about the base system).
    void reset_for_resolve() override {
        conflict_budget_ = cfg_.conflicts_start;
    }

    /// Build the persistent solver for a Session's base system. It is
    /// loaded once and reused across every warm solve; scoped state
    /// reaches it as native assumption literals in step_live(). With a
    /// named backend configured, the persistent solver is a registry
    /// backend instead of the built-in native solver.
    void bind_base(const std::vector<Polynomial>& base,
                   size_t num_vars) override {
        // A fresh persistent solver has none of the cached foreign facts:
        // re-inject them all on the next live step.
        coop_live_added_ = 0;
        if (!cfg_.backend.empty()) {
            live_.reset();
            live_backend_.reset();
            auto backend = sat::BackendRegistry::global().create(
                sat::SolverSpec{cfg_.backend});
            if (!backend.ok()) {
                backend_error_ = backend.status();
                return;
            }
            backend_error_ = Status();
            core::Anf2CnfConfig conv_cfg = cfg_.conv;
            conv_cfg.native_xor =
                cfg_.native_xor && (*backend)->supports_native_xor();
            const core::Anf2CnfResult conv =
                core::anf_to_cnf(base, num_vars, conv_cfg);
            live_backend_ = std::move(*backend);
            live_num_anf_vars_ = conv.num_anf_vars;
            live_backend_->load(conv.cnf);  // false: okay() stays false
            return;
        }
        core::Anf2CnfConfig conv_cfg = cfg_.conv;
        conv_cfg.native_xor = cfg_.native_xor;
        const core::Anf2CnfResult conv =
            core::anf_to_cnf(base, num_vars, conv_cfg);
        live_ = std::make_unique<sat::Solver>(solver_config());
        live_num_anf_vars_ = conv.num_anf_vars;
        live_->load(conv.cnf);  // a false return leaves okay() false: UNSAT
    }

    // ---- cooperative fact exchange (src/runtime/fact_exchange.h) ----
    //
    // With a SharedFactPool configured, foreign learnt facts are drained
    // into `coop_clauses_` (a local cache, because cold paths build a
    // fresh solver per step and must re-inject everything) and added as
    // clauses before every solve round; own harvests are published back.
    // Every cached fact is a consequence of the shared base problem, so
    // injection is sound into any solver over a system that contains the
    // base -- cold, live, scoped or not.

    /// Drain newly published foreign facts into the cache, crediting the
    /// step's import tally. Returns the number drained.
    size_t coop_refresh(FactSink& sink) {
        if (!cfg_.fact_pool) return 0;
        const size_t n = cfg_.fact_pool->import(coop_cursor_, cfg_.coop_worker,
                                                coop_clauses_);
        if (n) sink.count_coop_imported(n);
        return n;
    }

    /// Add cached facts [from, end) as clauses through `add`, skipping
    /// facts over variables the target encoding does not map identically
    /// (>= n_anf_vars; cannot happen for correctly sized pools, kept as a
    /// guard). Returns the new cache end.
    template <typename AddClause>
    size_t coop_inject(size_t from, size_t n_anf_vars, AddClause add) const {
        for (size_t i = from; i < coop_clauses_.size(); ++i) {
            const runtime::SharedFact& f = coop_clauses_[i];
            if (f.kind == runtime::SharedFact::Kind::kUnit) {
                if (f.a.var() < n_anf_vars) add(std::vector<sat::Lit>{f.a});
            } else if (f.a.var() < n_anf_vars && f.b.var() < n_anf_vars) {
                add(std::vector<sat::Lit>{f.a, f.b});
            }
        }
        return coop_clauses_.size();
    }

    /// Publish a solver's learnt units and binaries to the pool (which
    /// itself rejects variables outside the shared space -- that is how
    /// CNF auxiliaries above the original problem vars are filtered).
    /// Callers gate cold-path publishes on FactSink::coop_publish_base().
    void coop_publish(const std::vector<sat::Lit>& units,
                      const std::vector<std::array<sat::Lit, 2>>& binaries,
                      FactSink& sink) {
        if (!cfg_.fact_pool) return;
        runtime::SharedFactPool& pool = *cfg_.fact_pool;
        size_t published = 0;
        for (const sat::Lit u : units)
            if (pool.publish_unit(cfg_.coop_worker, u)) ++published;
        for (const auto& b : binaries)
            if (pool.publish_binary(cfg_.coop_worker, b[0], b[1])) ++published;
        if (published) sink.count_coop_published(published);
    }

    // Deliberate: the empty-spec native paths below are NOT routed
    // through an InTreeBackend adapter. The registry's "cms" adapter
    // performs XOR recovery the in-loop solver must not (the conversion
    // already emits native XORs), and the native paths carry the
    // bit-identical warm-Session/batch trajectory guarantees of PRs 3-4
    // that a re-route would put at risk. The shared pieces (harvest,
    // decide_from_model) are factored; the per-path solver plumbing
    // stays separate on purpose.
    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        if (!cfg_.backend.empty()) {
            if (!backend_error_.ok()) {
                StepReport report;
                report.status = backend_error_;
                return report;
            }
            if (live_backend_ && sink.warm_base_valid())
                return step_live_backend(sys, sink);
            return step_cold_backend(sys, sink);
        }
        if (live_ && sink.warm_base_valid()) return step_live(sys, sink);
        return step_cold(sys, sink);
    }

private:
    /// Deposit a solver's accumulated linear facts -- learnt units,
    /// equivalences paired up from learnt binaries, and (optionally) the
    /// binaries themselves as quadratic facts -- restricted to the first
    /// `n_anf_vars` variables. Shared by every cold and live path (native
    /// and backend) so they cannot diverge. Returns false once the sink
    /// reports contradiction.
    bool harvest(const std::vector<sat::Lit>& units,
                 const std::vector<std::array<sat::Lit, 2>>& binaries,
                 size_t n_anf_vars, FactSink& sink) {
        for (const sat::Lit u : units) {
            if (u.var() >= n_anf_vars) continue;
            // u true: var = !sign  ->  polynomial x (+ 1).
            Polynomial f = Polynomial::variable(u.var());
            if (!u.sign()) f += Polynomial::constant(true);
            sink.add(f);
            if (!sink.okay()) return false;
        }
        deposit(sink, equivalences_from_binaries(binaries, n_anf_vars));
        if (!sink.okay()) return false;
        if (cfg_.harvest_binary_clauses) {
            for (const auto& b : binaries) {
                if (b[0].var() >= n_anf_vars || b[1].var() >= n_anf_vars)
                    continue;
                // (l0 | l1) = 0 in ANF: product of negated literals.
                Polynomial f0 = Polynomial::variable(b[0].var());
                if (!b[0].sign()) f0 += Polynomial::constant(true);
                Polynomial f1 = Polynomial::variable(b[1].var());
                if (!b[1].sign()) f1 += Polynomial::constant(true);
                sink.add(f0 * f1);
                if (!sink.okay()) return false;
            }
        }
        return sink.okay();
    }

    /// The classic one-shot path: convert the current (scope-simplified)
    /// system to CNF and run a fresh bounded solver over it.
    StepReport step_cold(core::AnfSystem& sys, FactSink& sink) {
        StepReport report;
        // The CDCL run below is already bounded by conflicts + wall clock;
        // polling here keeps a cancelled engine from paying for the CNF
        // conversion and solver setup at all.
        if (sink.cancelled()) return report;

        core::Anf2CnfConfig conv_cfg = cfg_.conv;
        conv_cfg.native_xor = cfg_.native_xor;
        const size_t num_vars = sys.num_vars();
        const core::Anf2CnfResult conv =
            core::anf_to_cnf(sys.to_polynomials(), num_vars, conv_cfg);

        sat::Solver solver(solver_config());
        // Cancellation reaches a *running* solve through the terminate
        // hook (portfolio losers stop mid-budget, not at the step end).
        solver.set_terminate_callback(
            [token = sink.cancel_token()] { return token.cancelled(); });
        const double remaining = std::max(0.1, sink.time_remaining_s());
        sat::Result r = sat::Result::kUnsat;
        if (solver.load(conv.cnf)) {
            coop_refresh(sink);
            coop_inject(0, conv.num_anf_vars, [&](std::vector<sat::Lit> c) {
                solver.add_clause(std::move(c));
            });
            if (solver.okay()) r = solver.solve(conflict_budget_, remaining);
        }

        if (r == sat::Result::kUnsat || !solver.okay()) {
            // The learnt fact is the contradictory equation 1 = 0.
            sink.add(Polynomial::constant(true));
            return report;
        }
        if (r == sat::Result::kSat) {
            // A full solution: report it and stop the loop. It is not used
            // to simplify the ANF (it may not be unique).
            decide_from_model(sys, num_vars, [&](Var v) {
                return solver.model()[v] == sat::LBool::kTrue;
            }, report);
            return report;
        }

        // Undecided within the conflict budget: extract linear equations
        // from the learnt unit and binary clauses.
        if (!harvest(solver.learnt_units(), solver.learnt_binaries(),
                     conv.num_anf_vars, sink))
            return report;
        // Cold harvests are consequences of the *current* (possibly
        // scoped) system: only share them when that system is the base.
        if (sink.coop_publish_base())
            coop_publish(solver.learnt_units(), solver.learnt_binaries(), sink);
        if (sink.fresh() == 0) {
            // No new facts: raise the conflict budget (section IV).
            conflict_budget_ = std::min(cfg_.conflicts_max,
                                        conflict_budget_ + cfg_.conflicts_step);
        }
        Log{sink.verbosity()}.info(
            2, "iter %zu SAT: budget %lld, %zu new facts", sink.iteration(),
            static_cast<long long>(conflict_budget_), sink.fresh());
        return report;
    }

    /// The incremental path: no CNF conversion, no solver construction.
    /// The live solver holds the base system (plus everything it has
    /// learnt); the current scope reaches it purely as assumption
    /// literals -- one per variable the AnfSystem has fixed. Sound
    /// because every scoped constraint is itself such a literal
    /// (FactSink::warm_base_valid guards this), so base CNF + assumptions
    /// is logically equivalent to the live system.
    StepReport step_live(core::AnfSystem& sys, FactSink& sink) {
        StepReport report;
        if (sink.cancelled()) return report;

        sat::Solver& solver = *live_;
        if (!solver.okay()) {
            sink.add(Polynomial::constant(true));  // base itself is UNSAT
            return report;
        }
        solver.set_terminate_callback(
            [token = sink.cancel_token()] { return token.cancelled(); });

        // Inject foreign facts the persistent solver has not seen yet.
        // They are base consequences, so they may be added permanently.
        coop_refresh(sink);
        if (coop_live_added_ < coop_clauses_.size()) {
            coop_live_added_ =
                coop_inject(coop_live_added_, live_num_anf_vars_,
                            [&](std::vector<sat::Lit> c) {
                                solver.add_clause(std::move(c));
                            });
            if (!solver.okay()) {
                sink.add(Polynomial::constant(true));
                return report;
            }
        }

        std::vector<sat::Lit> assumptions;
        const size_t num_vars = sys.num_vars();
        for (Var v = 0; v < num_vars && v < live_num_anf_vars_; ++v) {
            const core::VarState st = sys.resolve(v);
            if (st.kind == core::VarState::Kind::kFixed)
                assumptions.push_back(sat::mk_lit(v, !st.value));
        }

        const double remaining = std::max(0.1, sink.time_remaining_s());
        const sat::Result r =
            solver.solve_assuming(assumptions, conflict_budget_, remaining);

        if (r == sat::Result::kUnsat || !solver.okay()) {
            // UNSAT under the scope's assumptions (or outright): the
            // current system has derived 1 = 0. pop() un-derives it.
            sink.add(Polynomial::constant(true));
            return report;
        }
        if (r == sat::Result::kSat) {
            decide_from_model(sys, num_vars, [&](Var v) {
                return v < solver.model().size() &&
                       solver.model()[v] == sat::LBool::kTrue;
            }, report);
            return report;
        }

        // Undecided: harvest linear facts. Learnt units live on the
        // solver's level-0 trail and learnt binaries are implied by the
        // clause database alone -- both are consequences of the *base*
        // system, never of the assumptions, so depositing them at any
        // scope (and re-depositing after a pop; the sink deduplicates)
        // is sound.
        if (!harvest(solver.learnt_units(), solver.learnt_binaries(),
                     live_num_anf_vars_, sink))
            return report;
        // The persistent solver's clause database only ever contains
        // consequences of the bound base (assumptions never enter it), so
        // when that base is the shared problem its exports are
        // publishable at any scope.
        if (sink.coop_publish_warm())
            coop_publish(solver.learnt_units(), solver.learnt_binaries(), sink);
        Log{sink.verbosity()}.info(
            2, "iter %zu SAT(live): %zu assumptions, budget %lld, %zu new",
            sink.iteration(), assumptions.size(),
            static_cast<long long>(conflict_budget_), sink.fresh());
        if (sink.fresh() == 0) {
            // The warm solver got stuck on the base encoding. Fall back to
            // one cold step: solving the *scope-simplified* CNF is
            // structurally easier, so the warm path is never less decisive
            // than the one-shot path. The fallback owns the budget
            // escalation (section IV schedule, once per step); typical
            // sweep candidates are decided above and never pay this.
            return step_cold(sys, sink);
        }
        return report;
    }

    /// Cold step through a registry backend: a fresh backend per step
    /// gets the scope-simplified system's CNF and one bounded solve; the
    /// verdict handling mirrors step_cold exactly, and whatever facts the
    /// backend can export are harvested (external processes export none
    /// -- the step still decides SAT/UNSAT and escalates its budget).
    StepReport step_cold_backend(core::AnfSystem& sys, FactSink& sink) {
        StepReport report;
        if (sink.cancelled()) return report;

        auto backend = sat::BackendRegistry::global().create(
            sat::SolverSpec{cfg_.backend});
        if (!backend.ok()) {
            report.status = backend.status();
            return report;
        }
        sat::SolverBackend& b = **backend;
        core::Anf2CnfConfig conv_cfg = cfg_.conv;
        conv_cfg.native_xor = cfg_.native_xor && b.supports_native_xor();
        const size_t num_vars = sys.num_vars();
        const core::Anf2CnfResult conv =
            core::anf_to_cnf(sys.to_polynomials(), num_vars, conv_cfg);

        b.set_terminate_callback(
            [token = sink.cancel_token()] { return token.cancelled(); });
        const double remaining = std::max(0.1, sink.time_remaining_s());
        sat::Result r = sat::Result::kUnsat;
        if (b.load(conv.cnf)) {
            coop_refresh(sink);
            coop_inject(0, conv.num_anf_vars, [&](std::vector<sat::Lit> c) {
                b.add_clause(c);
            });
            if (b.okay()) r = b.solve(conflict_budget_, remaining);
        }

        if (r == sat::Result::kUnsat || !b.okay()) {
            sink.add(Polynomial::constant(true));
            return report;
        }
        if (r == sat::Result::kSat) {
            decide_from_model(sys, num_vars, [&](Var v) {
                return b.value(v) == sat::LBool::kTrue;
            }, report);
            return report;
        }

        if (!harvest(b.learnt_units(), b.learnt_binaries(),
                     conv.num_anf_vars, sink))
            return report;
        if (sink.coop_publish_base())
            coop_publish(b.learnt_units(), b.learnt_binaries(), sink);
        if (sink.fresh() == 0) {
            conflict_budget_ = std::min(cfg_.conflicts_max,
                                        conflict_budget_ + cfg_.conflicts_step);
        }
        Log{sink.verbosity()}.info(
            2, "iter %zu SAT(%s): budget %lld, %zu new facts",
            sink.iteration(), cfg_.backend.c_str(),
            static_cast<long long>(conflict_budget_), sink.fresh());
        return report;
    }

    /// Warm step through the persistent Session backend: the current
    /// scope reaches the backend as assumption literals (backends
    /// without native assumptions degrade them to a cold solve
    /// internally -- verdict-equivalent either way), mirroring
    /// step_live. Falls back to one cold backend step when the warm
    /// solve was fact-free, so warm is never less decisive.
    StepReport step_live_backend(core::AnfSystem& sys, FactSink& sink) {
        StepReport report;
        if (sink.cancelled()) return report;

        sat::SolverBackend& b = *live_backend_;
        if (!b.okay()) {
            sink.add(Polynomial::constant(true));  // base itself is UNSAT
            return report;
        }
        b.set_terminate_callback(
            [token = sink.cancel_token()] { return token.cancelled(); });

        coop_refresh(sink);
        if (coop_live_added_ < coop_clauses_.size()) {
            coop_live_added_ = coop_inject(
                coop_live_added_, live_num_anf_vars_,
                [&](const std::vector<sat::Lit>& c) { b.add_clause(c); });
            if (!b.okay()) {
                sink.add(Polynomial::constant(true));
                return report;
            }
        }

        const size_t num_vars = sys.num_vars();
        size_t n_assumed = 0;
        for (Var v = 0; v < num_vars && v < live_num_anf_vars_; ++v) {
            const core::VarState st = sys.resolve(v);
            if (st.kind == core::VarState::Kind::kFixed) {
                b.assume(sat::mk_lit(v, !st.value));
                ++n_assumed;
            }
        }

        const double remaining = std::max(0.1, sink.time_remaining_s());
        const sat::Result r = b.solve(conflict_budget_, remaining);

        if (r == sat::Result::kUnsat || !b.okay()) {
            sink.add(Polynomial::constant(true));
            return report;
        }
        if (r == sat::Result::kSat) {
            decide_from_model(sys, num_vars, [&](Var v) {
                return b.value(v) == sat::LBool::kTrue;
            }, report);
            return report;
        }

        if (!harvest(b.learnt_units(), b.learnt_binaries(),
                     live_num_anf_vars_, sink))
            return report;
        // Like the native live path: a persistent backend's exports are
        // bound-base consequences, publishable at any scope when the
        // bound base is the shared problem. (Backends that degrade
        // assumptions to units export nothing on assumption-laden solves
        // -- see the lingeling adapter -- so no unsound fact can leak
        // through this call.)
        if (sink.coop_publish_warm())
            coop_publish(b.learnt_units(), b.learnt_binaries(), sink);
        Log{sink.verbosity()}.info(
            2, "iter %zu SAT(%s live): %zu assumptions, %zu new",
            sink.iteration(), cfg_.backend.c_str(), n_assumed, sink.fresh());
        if (sink.fresh() == 0) {
            return step_cold_backend(sys, sink);
        }
        return report;
    }

    SatTechniqueConfig cfg_;
    int64_t conflict_budget_;
    std::unique_ptr<sat::Solver> live_;  ///< persistent Session solver
    std::unique_ptr<sat::SolverBackend> live_backend_;  ///< named-backend twin
    Status backend_error_;  ///< a failed bind_base, surfaced at step()
    size_t live_num_anf_vars_ = 0;
    // Cooperative exchange state: the private import cursor, the cache of
    // foreign facts drained so far (cold paths re-inject all of it), and
    // how much of the cache the persistent live solver has already seen.
    runtime::SharedFactPool::Cursor coop_cursor_;
    std::vector<runtime::SharedFact> coop_clauses_;
    size_t coop_live_added_ = 0;
};

}  // namespace

std::unique_ptr<Technique> make_xl_technique(const core::XlConfig& cfg) {
    return std::make_unique<XlTechnique>(cfg);
}

std::unique_ptr<Technique> make_elimlin_technique(
    const core::ElimLinConfig& cfg) {
    return std::make_unique<ElimLinTechnique>(cfg);
}

std::unique_ptr<Technique> make_groebner_technique(
    const core::GroebnerConfig& cfg) {
    return std::make_unique<GroebnerTechnique>(cfg);
}

std::unique_ptr<Technique> make_sat_technique(const SatTechniqueConfig& cfg) {
    return std::make_unique<SatTechnique>(cfg);
}

}  // namespace bosphorus
