#include "pipeline.h"

#include <algorithm>
#include <utility>

#include "core/anf_to_cnf.h"
#include "core/cnf_to_anf.h"
#include "sat/solve_cnf.h"
#include "util/timer.h"

namespace perfbench {

using bosphorus::Engine;
using bosphorus::Problem;
using bosphorus::Report;
using bosphorus::Result;
using bosphorus::SolveConfig;

namespace {

std::vector<bool> model_to_bools(const std::vector<sat::LBool>& model,
                                 size_t n) {
    std::vector<bool> out(n, false);
    for (size_t v = 0; v < n && v < model.size(); ++v)
        out[v] = model[v] == sat::LBool::kTrue;
    return out;
}

/// The learnt units / (anti-)equivalences over original variables that
/// solve() appends to a CNF input after the engine ran.
void append_cnf_facts(const std::vector<anf::Polynomial>& facts,
                      size_t num_vars, sat::Cnf& work) {
    for (const auto& p : facts) {
        if (p.degree() > 1 || p.size() > 3) continue;
        const auto vars = p.variables();
        if (vars.empty()) continue;
        if (std::any_of(vars.begin(), vars.end(),
                        [&](anf::Var v) { return v >= num_vars; }))
            continue;
        const bool constant = p.has_constant_term();
        if (vars.size() == 1 && p.size() <= 2) {
            work.add_clause({sat::mk_lit(vars[0], !constant)});
        } else if (vars.size() == 2 && p.size() <= 3) {
            work.add_clause({sat::mk_lit(vars[0], false),
                             sat::mk_lit(vars[1], !constant)});
            work.add_clause({sat::mk_lit(vars[0], true),
                             sat::mk_lit(vars[1], constant)});
        }
    }
}

}  // namespace

PipelineRecord traced_solve(const std::string& text, bool cnf,
                            const SolveConfig& cfg, Tracer& tracer,
                            long request, std::vector<XlInput>* xl_inputs) {
    PipelineRecord rec;
    const bosphorus::Timer timer;
    const Tracer::Scope root(tracer, cfg.preprocess ? "api.solve"
                                                    : "api.plain_solve",
                             request);
    auto fail = [&](const bosphorus::Status& st) {
        rec.error = st.to_string();
        rec.seconds = timer.seconds();
        return rec;
    };

    Result<Problem> parsed = [&] {
        const Tracer::Scope span(tracer,
                                 cnf ? "sat.dimacs.parse" : "anf.parse");
        return cnf ? Problem::from_cnf_text(text) : Problem::from_anf_text(text);
    }();
    if (!parsed.ok()) return fail(parsed.status());
    const Problem& problem = *parsed;

    // Whatever reaches the back end: the original formula, or the one the
    // engine left behind.
    sat::Cnf work = cnf ? problem.cnf() : sat::Cnf{};
    std::vector<anf::Polynomial> to_convert;
    if (cfg.preprocess) {
        Problem engine_input;
        if (cnf) {
            // Exactly the conversion Session::materialize performs on a
            // CNF problem, hoisted out so it gets its own span.
            const Tracer::Scope span(tracer, "core.cnf_to_anf");
            bosphorus::core::Cnf2AnfResult conv = bosphorus::core::cnf_to_anf(
                problem.cnf(), cfg.engine.clause_cut);
            engine_input = Problem::from_anf(std::move(conv.polys),
                                             conv.num_vars);
        } else {
            engine_input = problem;
        }
        bosphorus::EngineConfig ecfg = cfg.engine;
        ecfg.time_budget_s = std::min(cfg.engine_budget_s, cfg.timeout_s);
        Engine engine(ecfg);
        if (tracer.enabled()) {
            engine.clear_techniques();
            for (auto& t : traced_techniques(ecfg, tracer, rec.tallies,
                                             request, xl_inputs))
                engine.add_technique(std::move(t));
        }
        Result<Report> run = [&] {
            const Tracer::Scope span(tracer, "api.engine.run");
            return engine.run(engine_input);
        }();
        if (!run.ok()) return fail(run.status());
        Report& rep = *run;
        rec.iterations = rep.iterations;
        if (!tracer.enabled())
            for (const auto& t : rep.techniques)
                rec.tallies[t.name] = {t.steps, t.facts, 0};
        if (rep.verdict != sat::Result::kUnknown) {
            rec.verdict = rep.verdict;
            if (rep.verdict == sat::Result::kSat)
                rec.answer_ok =
                    cnf ? cnf_solution_ok(problem.cnf(), rep.solution)
                        : anf_solution_ok(problem.polynomials(), rep.solution);
            rec.seconds = timer.seconds();
            return rec;
        }
        if (cnf)
            append_cnf_facts(rep.processed_anf, problem.cnf().num_vars, work);
        else
            to_convert = std::move(rep.processed_anf);
    } else if (!cnf) {
        to_convert = problem.polynomials();
    }

    if (!cnf) {
        const Tracer::Scope span(tracer, "core.anf_to_cnf");
        bosphorus::core::Anf2CnfConfig conv_cfg =
            cfg.preprocess ? cfg.engine.conv : bosphorus::core::Anf2CnfConfig{};
        conv_cfg.native_xor = false;  // back ends receive plain CNF
        work = bosphorus::core::anf_to_cnf(to_convert, problem.num_vars(),
                                           conv_cfg)
                   .cnf;
    }

    const double remaining = std::max(0.1, cfg.timeout_s - timer.seconds());
    Result<sat::CnfSolveOutcome> so = [&] {
        const Tracer::Scope span(
            tracer, cfg.preprocess ? "sat.backend" : "sat.plain_backend");
        return sat::solve_cnf_with(work, cfg.solver, remaining);
    }();
    if (!so.ok()) return fail(so.status());
    rec.verdict = so->result;
    rec.conflicts = so->stats.conflicts;
    rec.propagations = so->stats.propagations;
    if (so->result == sat::Result::kSat) {
        rec.answer_ok =
            cnf ? sat::model_satisfies(problem.cnf(), so->model)
                : anf_solution_ok(problem.polynomials(),
                                  model_to_bools(so->model, problem.num_vars()));
    }
    rec.seconds = timer.seconds();
    return rec;
}

void add_tallies(const TechniqueTallies& from, TechniqueTallies& into) {
    for (const auto& [name, c] : from) {
        TechniqueCounts& t = into[name];
        t.steps += c.steps;
        t.facts += c.facts;
        t.useful += c.useful;
    }
}

bool same_tallies(const TechniqueTallies& a, const TechniqueTallies& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [name, c] : a) {
        const auto it = b.find(name);
        if (it == b.end() || it->second.steps != c.steps ||
            it->second.facts != c.facts)
            return false;
    }
    return true;
}

void trace_layer_metrics(const Tracer& tracer,
                         const TechniqueTallies& tallies, MetricSheet& sheet) {
    const auto self = tracer.self_seconds();
    const auto total = tracer.total_seconds();
    auto get = [](const std::map<std::string, double>& m, const char* k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    for (const char* span :
         {"anf.parse", "sat.dimacs.parse", "core.cnf_to_anf", "api.engine.run",
          "core.xl.step", "core.elimlin.step", "sat.step.step",
          "core.anf_to_cnf", "sat.backend"})
        sheet.set(std::string(span) + "_s", get(self, span));
    for (const auto& [name, c] : tallies) {
        sheet.set(name + ".steps", double(c.steps));
        sheet.set(name + ".facts", double(c.facts));
        sheet.set(name + ".useful_ratio",
                  c.steps ? double(c.useful) / double(c.steps) : 0.0);
    }
    const double engine = get(total, "api.engine.run");
    const double solve = get(total, "api.solve");
    sheet.set("core.xl.engine_share",
              engine > 0 ? get(total, "core.xl.step") / engine : 0.0);
    sheet.set("sat.solve_share",
              solve > 0 ? (get(total, "sat.step.step") +
                           get(total, "sat.backend")) / solve
                        : 0.0);
}

}  // namespace perfbench
