#include "bosphorus/engine.h"

#include <utility>

#include "bosphorus/session.h"
#include "core/anf_system.h"

namespace bosphorus {

using anf::Polynomial;

// ---- FactSink --------------------------------------------------------------

bool FactSink::add(const Polynomial& fact) {
    ++seen_;
    if (sys_.add_fact(fact)) {
        ++fresh_;
        return true;
    }
    return false;
}

bool FactSink::okay() const { return sys_.okay(); }

// ---- Report ----------------------------------------------------------------

size_t Report::facts_from(const std::string& name) const {
    size_t total = 0;
    for (const auto& t : techniques)
        if (t.name == name) total += t.facts;
    return total;
}

size_t Report::total_facts() const {
    size_t total = 0;
    for (const auto& t : techniques) total += t.facts;
    return total;
}

// ---- Engine ----------------------------------------------------------------

std::vector<std::unique_ptr<Technique>> make_default_techniques(
    const EngineConfig& cfg) {
    std::vector<std::unique_ptr<Technique>> out;
    if (cfg.use_xl) out.push_back(make_xl_technique(cfg.xl));
    if (cfg.use_elimlin) out.push_back(make_elimlin_technique(cfg.elimlin));
    if (cfg.use_groebner) out.push_back(make_groebner_technique(cfg.groebner));
    if (cfg.use_sat) {
        SatTechniqueConfig sat_cfg;
        sat_cfg.conv = cfg.conv;
        sat_cfg.native_xor = cfg.sat_native_xor;
        sat_cfg.conflicts_start = cfg.sat_conflicts_start;
        sat_cfg.conflicts_max = cfg.sat_conflicts_max;
        sat_cfg.conflicts_step = cfg.sat_conflicts_step;
        sat_cfg.harvest_binary_clauses = cfg.harvest_binary_clauses;
        sat_cfg.backend = cfg.sat_backend;
        if (cfg.cooperative && cfg.fact_pool) {
            sat_cfg.fact_pool = cfg.fact_pool;
            sat_cfg.coop_worker = cfg.coop_worker;
        }
        out.push_back(make_sat_technique(sat_cfg));
    }
    return out;
}

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg), techniques_(make_default_techniques(cfg_)) {}

Engine& Engine::add_technique(std::unique_ptr<Technique> technique) {
    techniques_.push_back(std::move(technique));
    return *this;
}

Engine& Engine::clear_techniques() {
    techniques_.clear();
    return *this;
}

std::vector<std::string> Engine::technique_names() const {
    std::vector<std::string> names;
    names.reserve(techniques_.size());
    for (const auto& t : techniques_) names.push_back(t->name());
    return names;
}

Engine& Engine::set_interrupt_callback(InterruptCallback cb) {
    interrupt_ = std::move(cb);
    return *this;
}

Engine& Engine::set_progress_callback(ProgressCallback cb) {
    progress_ = std::move(cb);
    return *this;
}

Engine& Engine::set_cancellation_token(runtime::CancellationToken token) {
    cancel_ = std::move(token);
    return *this;
}

Result<Report> Engine::run(const Problem& problem) {
    // A one-shot run is a throwaway Session solved exactly once. The
    // Session borrows this Engine's registry and hooks (so custom
    // techniques and callbacks behave as always) and never takes the
    // warm path -- OneShotTag keeps the result bit-identical to the
    // pre-Session loop.
    Session session(problem, cfg_, Session::OneShotTag{});
    session.techniques_ = std::move(techniques_);
    session.interrupt_ = interrupt_;
    session.progress_ = progress_;
    session.cancel_ = cancel_;
    try {
        Result<Report> out = session.solve();
        techniques_ = std::move(session.techniques_);
        return out;
    } catch (...) {
        techniques_ = std::move(session.techniques_);
        throw;
    }
}

}  // namespace bosphorus
