// Incremental-solving benchmark -- warm Session re-solves vs an
// equivalent cold Engine::run loop on a Simon-style key sweep.
//
// One planted overdetermined quadratic ANF system stands in for a cipher
// encoding; the sweep enumerates all assignments of the first
// BENCH_SWEEP_BITS "key" variables (one of which matches the planted
// model). The cold loop pays full materialisation + simplification per
// candidate; the warm loop opens a Session scope, assumes the bits,
// re-solves against the already-simplified base with a live SAT solver,
// and pops.
//
// Checks, enforced with a nonzero exit code:
//  * warm and cold verdicts are bit-identical per candidate, and so are
//    the SAT solutions (the planted system is overdetermined, so models
//    are unique);
//  * a second warm sweep reproduces the first exactly (determinism);
//  * the warm loop must not be slower than cold (5% noise slack; the
//    strict comparison is still reported as warm_strictly_faster).
// The cold sweep time and the verdict counts are compared against the
// checked-in baseline (bench/baselines/BENCH_incremental_baseline.json)
// by the CI job, not by this binary.
//
// Output is machine-readable JSON, printed to stdout and written to
// BENCH_incremental.json (override with BENCH_JSON_OUT). Knobs:
// BENCH_VARS (32), BENCH_EQS (48), BENCH_SWEEP_BITS (4), BENCH_SEED (1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace bosphorus;

namespace {

size_t env_or(const char* name, size_t fallback) {
    if (const char* v = std::getenv(name)) return std::strtoul(v, nullptr, 10);
    return fallback;
}

EngineConfig bench_config(uint64_t seed) {
    EngineConfig cfg;
    cfg.xl.m_budget = 18;
    cfg.elimlin.m_budget = 18;
    cfg.sat_conflicts_start = 2'000;
    cfg.sat_conflicts_max = 20'000;
    cfg.sat_conflicts_step = 2'000;
    cfg.max_iterations = 12;
    cfg.time_budget_s = 30.0;
    cfg.seed = seed;
    cfg.emit_processed = false;  // the sweep only consumes verdicts
    return cfg;
}

struct Outcome {
    sat::Result verdict = sat::Result::kUnknown;
    std::vector<bool> solution;

    bool operator==(const Outcome&) const = default;
};

const char* verdict_name(sat::Result r) {
    if (r == sat::Result::kSat) return "sat";
    if (r == sat::Result::kUnsat) return "unsat";
    return "unknown";
}

}  // namespace

int main() {
    const size_t num_vars = env_or("BENCH_VARS", 32);
    const size_t num_eqs = env_or("BENCH_EQS", 48);
    const size_t sweep_bits = env_or("BENCH_SWEEP_BITS", 4);
    const auto seed = static_cast<uint64_t>(env_or("BENCH_SEED", 1));
    const char* json_path = std::getenv("BENCH_JSON_OUT");
    if (!json_path) json_path = "BENCH_incremental.json";

    Rng gen_rng(seed * 0x9E3779B9ULL + 7);
    cnfgen::PlantedAnf inst = cnfgen::planted_quadratic_anf(
        num_vars, num_eqs, 3, 2, gen_rng);
    const Problem base = Problem::from_anf(inst.polys, inst.num_vars);
    const size_t n_candidates = size_t{1} << sweep_bits;
    const EngineConfig cfg = bench_config(seed);

    // (a) Cold reference: every candidate re-materialises the full system
    // (base + assumption units) and runs a fresh one-shot Engine.
    Timer cold_timer;
    std::vector<Outcome> cold;
    cold.reserve(n_candidates);
    for (size_t mask = 0; mask < n_candidates; ++mask) {
        Problem p = base;
        for (size_t v = 0; v < sweep_bits; ++v) {
            anf::Polynomial unit =
                anf::Polynomial::variable(static_cast<anf::Var>(v));
            if ((mask >> v) & 1) unit += anf::Polynomial::constant(true);
            if (!p.add_polynomial(unit).ok()) return 1;
        }
        Engine engine(cfg);
        Result<Report> r = engine.run(p);
        if (!r.ok()) {
            std::fprintf(stderr, "cold run %zu failed: %s\n", mask,
                         r.status().to_string().c_str());
            return 1;
        }
        cold.push_back({r->verdict, std::move(r->solution)});
    }
    const double cold_s = cold_timer.seconds();

    // (b) The warm loop: one Session, one base simplification, push /
    // assume / solve / pop per candidate. Run twice for the determinism
    // check.
    auto warm_sweep = [&](double* seconds) {
        Timer warm_timer;
        std::vector<Outcome> out;
        out.reserve(n_candidates);
        Session session(base, cfg);
        for (size_t mask = 0; mask < n_candidates; ++mask) {
            if (!session.push().ok()) return out;
            for (size_t v = 0; v < sweep_bits; ++v) {
                if (!session.assume(static_cast<anf::Var>(v), (mask >> v) & 1)
                         .ok())
                    return out;
            }
            Result<Report> r = session.solve();
            if (!r.ok()) {
                std::fprintf(stderr, "warm solve %zu failed: %s\n", mask,
                             r.status().to_string().c_str());
                return out;
            }
            out.push_back({r->verdict, std::move(r->solution)});
            if (!session.pop().ok()) return out;
        }
        *seconds = warm_timer.seconds();
        return out;
    };
    double warm_s = 0.0, warm2_s = 0.0;
    const std::vector<Outcome> warm = warm_sweep(&warm_s);
    const std::vector<Outcome> warm2 = warm_sweep(&warm2_s);

    // Three nested checks, strictest first:
    //  * identical      -- warm == cold bit for bit (holds at the default
    //                      knobs; larger instances can leave one path at
    //                      kUnknown within its budgets);
    //  * no_contradiction / solutions equal -- a SAT-vs-UNSAT clash or a
    //    model mismatch where both decided would be a soundness bug;
    //  * as_decisive    -- warm must never be *weaker* (cold decided,
    //                      warm kUnknown): the live solver falls back to
    //                      a cold step exactly to guarantee this.
    const bool identical = warm.size() == n_candidates && warm == cold;
    const bool deterministic = warm == warm2;
    bool no_contradiction = warm.size() == n_candidates;
    bool as_decisive = warm.size() == n_candidates;
    size_t n_sat = 0, n_unsat = 0, n_unknown = 0;
    for (size_t i = 0; i < cold.size(); ++i) {
        switch (cold[i].verdict) {
            case sat::Result::kSat: ++n_sat; break;
            case sat::Result::kUnsat: ++n_unsat; break;
            default: ++n_unknown; break;
        }
        if (i >= warm.size()) break;
        const sat::Result cv = cold[i].verdict, wv = warm[i].verdict;
        if (cv != sat::Result::kUnknown && wv != sat::Result::kUnknown) {
            if (cv != wv) no_contradiction = false;
            if (cv == sat::Result::kSat && wv == sat::Result::kSat &&
                cold[i].solution != warm[i].solution)
                no_contradiction = false;
        }
        if (cv != sat::Result::kUnknown && wv == sat::Result::kUnknown)
            as_decisive = false;
        if (!(warm[i] == cold[i])) {
            std::fprintf(stderr,
                         "candidate %zu diverged: cold=%s warm=%s\n", i,
                         verdict_name(cv), verdict_name(wv));
        }
    }

    const bool warm_not_slower = warm_s <= cold_s * 1.05;

    const double speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
    char json[1536];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"bench\": \"incremental\",\n"
        "  \"vars\": %zu,\n"
        "  \"equations\": %zu,\n"
        "  \"sweep_bits\": %zu,\n"
        "  \"candidates\": %zu,\n"
        "  \"seed\": %llu,\n"
        "  \"cold_s\": %.4f,\n"
        "  \"warm_s\": %.4f,\n"
        "  \"warm_repeat_s\": %.4f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"warm_strictly_faster\": %s,\n"
        "  \"warm_not_slower\": %s,\n"
        "  \"verdicts_identical\": %s,\n"
        "  \"no_contradictions\": %s,\n"
        "  \"warm_at_least_as_decisive\": %s,\n"
        "  \"deterministic\": %s,\n"
        "  \"verdicts\": {\"sat\": %zu, \"unsat\": %zu, \"unknown\": %zu}\n"
        "}\n",
        num_vars, num_eqs, sweep_bits, n_candidates,
        static_cast<unsigned long long>(seed), cold_s, warm_s, warm2_s,
        speedup,
        warm_s < cold_s ? "true" : "false",
        warm_not_slower ? "true" : "false",
        identical ? "true" : "false", no_contradiction ? "true" : "false",
        as_decisive ? "true" : "false", deterministic ? "true" : "false",
        n_sat, n_unsat, n_unknown);

    std::fputs(json, stdout);
    if (std::ofstream out{json_path}) out << json;
    else std::fprintf(stderr, "warning: cannot write %s\n", json_path);

    return (no_contradiction && as_decisive && deterministic &&
            warm_not_slower)
               ? 0
               : 1;
}
