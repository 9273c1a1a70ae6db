// The two solve() workloads: a fixed set of generated instances, each
// solved with Bosphorus in front of the back end and without it (the
// Table II arms), one pass after another until the window is used up.
//
// crypto-anf: planted Simon32/64 [2 pairs, 5 rounds] and small-scale AES
//   SR(3,1,2,4) key recovery at the paper's defaults (EngineConfig{}: M=30,
//   D=1, deltaM=4, K=8, L=5) with the cms back end. Dense XL elimination
//   dominates, so gf2/core changes show at full strength.
// cnf-random: random 3-SAT (n=300, clause ratio 8, UNSAT w.h.p.) plus a
//   few planted satisfiable CNFs, under the Table II laptop protocol of
//   bench/table2_common.h: M=20 (at M=30 XL explodes on CNF input),
//   conflicts 10k..100k in 10k steps, 16 iterations, engine budget 0.4x
//   the timeout. The in-loop SAT step dominates: the main workload for
//   SAT-layer changes.
#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "anf/monomial_store.h"
#include "bench.h"
#include "cnfgen/generators.h"
#include "crypto/aes_small.h"
#include "crypto/simon.h"
#include "metrics.h"
#include "pipeline.h"
#include "table2_common.h"
#include "util/rng.h"
#include "xl_probe.h"

namespace perfbench {

using bosphorus::Problem;
using bosphorus::SolveConfig;

namespace {

struct Instance {
    std::string name;
    std::string text;  // ANF text or DIMACS: all the program receives
    bool planted = false;  // satisfiable by construction: must answer SAT
};

struct Workload {
    bool cnf = false;  // instances are DIMACS
    bool xl_probe = false;
    SolveConfig with;   // Bosphorus in front of the back end
    SolveConfig plain;  // the back end alone
    std::function<std::vector<Instance>(uint64_t seed)> make;
};

// ---- crypto-anf ------------------------------------------------------------

constexpr size_t kSimon = 5;  // Simon32/64 [2 pairs, 5 rounds]
constexpr size_t kSr = 3;     // SR(3,1,2,4)

std::vector<Instance> crypto_instances(uint64_t seed) {
    std::vector<Instance> out;
    bosphorus::Rng rng(seed);
    const bosphorus::crypto::Simon32 simon(5);
    for (size_t i = 0; i < kSimon; ++i)
        out.push_back({"simon-[2,5]#" + std::to_string(i),
                       anf_text(simon.encode(2, rng).polys), true});
    bosphorus::crypto::SmallScaleAes::Params sr;
    sr.rounds = 3;
    sr.rows = 1;
    sr.cols = 2;
    sr.e = 4;
    const bosphorus::crypto::SmallScaleAes aes(sr);
    for (size_t i = 0; i < kSr; ++i)
        out.push_back({"sr(3,1,2,4)#" + std::to_string(i),
                       anf_text(aes.random_instance(rng).polys), true});
    return out;
}

Workload crypto_workload() {
    Workload w;
    w.xl_probe = true;
    w.with.preprocess = true;  // EngineConfig{}: the paper's defaults
    w.with.solver = "cms";
    w.with.timeout_s = 60.0;
    w.with.engine_budget_s = 0.4 * w.with.timeout_s;
    w.plain = w.with;
    w.plain.preprocess = false;
    w.make = crypto_instances;
    return w;
}

// ---- cnf-random ------------------------------------------------------------

// Random 3-SAT well above the threshold, so almost every instance is a
// refutation for the in-loop SAT step. At the threshold ratio 4.26 the CDCL
// time of one instance spreads over an order of magnitude (0.5-9 s at
// n=200), so a 30 s run could not hold enough instances for a steady sum;
// here each takes ~0.4 s with a spread of ~35%, and 40 of them fit. Their
// verdicts are not known in advance: the two arms must agree.
constexpr size_t kKsatVars = 300;
constexpr double kKsatRatio = 8.0;
constexpr size_t kKsatInstances = 40;
// Planted CNFs (random 3-clauses plus XOR groups, all consistent with a
// hidden assignment): satisfiable by construction, so a preprocessing bug
// that turns SAT into UNSAT, or a back-end model that fails the formula,
// shows as a wrong answer. At the same ratio 8 each takes at most ~0.15 s;
// near the threshold (ratio 4.3) one in a few dozen took 7.5 s.
constexpr size_t kPlantedVars = 300;
constexpr size_t kPlantedClauses = 2400;
constexpr size_t kPlantedInstances = 8;

std::vector<Instance> cnf_instances(uint64_t seed) {
    std::vector<Instance> out;
    bosphorus::Rng rng(seed);
    const auto clauses = static_cast<size_t>(kKsatRatio * kKsatVars + 0.5);
    for (size_t i = 0; i < kKsatInstances; ++i)
        out.push_back(
            {"3sat-" + std::to_string(kKsatVars) + "#" + std::to_string(i),
             cnf_text(bosphorus::cnfgen::random_ksat(kKsatVars, clauses, 3,
                                                     rng))});
    bosphorus::cnfgen::StreamDimacs planted;
    planted.num_vars = kPlantedVars;
    planted.num_clauses = kPlantedClauses;
    planted.plant = true;
    for (size_t i = 0; i < kPlantedInstances; ++i) {
        std::ostringstream text;
        bosphorus::cnfgen::write_stream_dimacs(text, planted, rng);
        out.push_back({"planted-" + std::to_string(kPlantedVars) + "#" +
                           std::to_string(i),
                       text.str(), true});
    }
    return out;
}

Workload cnf_workload() {
    namespace bench = bosphorus::bench;
    bench::BenchScale scale;  // timeout 10 s, engine budget 0.4x of it
    Workload w;
    w.cnf = true;
    w.with = bench::make_config(sat::SolverKind::kCmsLike, true, scale);
    w.plain = bench::make_config(sat::SolverKind::kCmsLike, false, scale);
    w.make = cnf_instances;
    return w;
}

// ---- shared run loop -------------------------------------------------------

/// Record a wrong answer: an error (non-empty `error`), a model that fails
/// the input, or any verdict but SAT on a planted instance (their timeouts
/// are far above their run times). True iff the answer is a decided
/// verdict.
bool check(RunResult& res, const Instance& inst, const char* arm,
           const std::string& error, sat::Result v, bool answer_ok) {
    if (!error.empty() || !answer_ok ||
        (inst.planted && v != sat::Result::kSat)) {
        res.wrong(inst.name + arm + ": " +
                  (error.empty() ? verdict_name(v) : error) +
                  (answer_ok ? "" : ", model fails the input"));
        return false;
    }
    return v != sat::Result::kUnknown;
}

/// Two decided verdicts on one instance must agree.
void check_agree(RunResult& res, const std::string& what, sat::Result a,
                 sat::Result b) {
    if (a != sat::Result::kUnknown && b != sat::Result::kUnknown && a != b)
        res.wrong(what + ": verdicts disagree (" + verdict_name(a) + " vs " +
                  verdict_name(b) + ")");
}

void run_untraced(const Options& opt, const Workload& w,
                  const std::vector<Instance>& insts, SetupTimer& setup,
                  RunResult& res, MetricSheet& sheet) {
    std::vector<double> pass_with, pass_plain, pass_solved, latency;
    double busy = 0;  // summed time of every operation, both arms
    const bosphorus::Timer window;
    do {
        double sum_with = 0, sum_plain = 0, solved = 0;
        for (const Instance& inst : insts) {
            sat::Result verdicts[2];
            for (const bool with : {true, false}) {
                const bosphorus::Timer t;
                const auto out = solve_text(inst.text, w.cnf,
                                            with ? w.with : w.plain);
                const double secs = t.seconds();
                ++res.attempted;
                verdicts[with] =
                    out.ok() ? out->result : sat::Result::kUnknown;
                // solve() returns no model: it checks a back-end model
                // against the input itself and reports one that fails as
                // UNKNOWN, which is wrong on a planted instance. Models
                // the engine finds in its loop are checked by the traced
                // run.
                const bool decided =
                    check(res, inst, with ? " (with)" : " (plain)",
                          out.ok() ? "" : out.status().to_string(),
                          verdicts[with], true);
                if (!decided) ++res.failed;
                if (with) {
                    sum_with += secs;
                    latency.push_back(secs);
                    solved += decided;
                } else {
                    sum_plain += secs;
                }
            }
            check_agree(res, inst.name, verdicts[1], verdicts[0]);
            setup.tick();
        }
        pass_with.push_back(sum_with);
        pass_plain.push_back(sum_plain);
        busy += sum_with + sum_plain;
        pass_solved.push_back(solved);
    } while (window.seconds() + pass_with.back() + pass_plain.back() <=
             opt.seconds);
    sheet.set("solve_s", median(pass_with));
    sheet.set("plain_solve_s", median(pass_plain));
    sheet.set("jobs_per_s", double(res.attempted) / busy);
    sheet.set("latency_p50_s", quantile(latency, 0.5));
    sheet.set("latency_p90_s", quantile(latency, 0.9));
    sheet.set("solved", median(pass_solved));
    sheet.set("setup_s", setup.finish());
}

/// One traced and one untraced with-Bosphorus pass over the instances
/// (which runs first alternates, so neither always meets a warm monomial
/// store), a plain pass traced on its own, and the XL phase probe where
/// asked for.
void run_traced(const Options& opt, const Workload& w,
                const std::vector<Instance>& insts, RunResult& res,
                MetricSheet& sheet) {
    Tracer tracer(true);
    Tracer off(false);
    Tracer plain(true);  // kept apart: the layer metrics describe solve_s
    TechniqueTallies tallies;
    double traced_s = 0, untraced_s = 0;
    std::vector<XlInput> xl_inputs;
    for (size_t i = 0; i < insts.size(); ++i) {
        const Instance& inst = insts[i];
        PipelineRecord a, b;
        if (i % 2 == 0) {
            a = traced_solve(inst.text, w.cnf, w.with, off, -1);
            b = traced_solve(inst.text, w.cnf, w.with, tracer, long(i),
                             w.xl_probe ? &xl_inputs : nullptr);
        } else {
            b = traced_solve(inst.text, w.cnf, w.with, tracer, long(i),
                             w.xl_probe ? &xl_inputs : nullptr);
            a = traced_solve(inst.text, w.cnf, w.with, off, -1);
        }
        const PipelineRecord p =
            traced_solve(inst.text, w.cnf, w.plain, plain, long(i));
        res.attempted += 3;
        untraced_s += a.seconds;
        traced_s += b.seconds;
        add_tallies(b.tallies, tallies);
        const std::pair<const PipelineRecord*, const char*> arms[] = {
            {&a, " (untraced)"}, {&b, " (traced)"}, {&p, " (plain)"}};
        for (const auto& [r, arm] : arms)
            if (!check(res, inst, arm, r->error, r->verdict, r->answer_ok))
                ++res.failed;
        if (a.verdict != b.verdict || !same_tallies(a.tallies, b.tallies))
            res.wrong(inst.name + ": traced and untraced runs differ");
        check_agree(res, inst.name, b.verdict, p.verdict);
        sheet.add("api.engine.iterations", double(b.iterations));
        // The with-Bosphorus back end runs only on what the engine left
        // undecided; the plain arm's back end runs on every instance.
        sheet.add("sat.backend.conflicts", double(b.conflicts));
        sheet.add("sat.backend.propagations", double(b.propagations));
        sheet.add("sat.plain_backend.conflicts", double(p.conflicts));
        sheet.add("sat.plain_backend.propagations", double(p.propagations));
    }

    // XL phase probe on every XL step the traced pass took, from the
    // step's own input and generator state.
    XlProbe largest, sum;
    for (const XlInput& in : xl_inputs) {
        XlProbe x;
        const std::string diff = probe_xl(in.equations, w.with.engine.xl,
                                          in.rng, &x);
        if (!diff.empty())
            res.wrong("XL probe differs from run_xl: " + diff);
        sum.expand_s += x.expand_s;
        sum.linearize_s += x.linearize_s;
        sum.reduce_s += x.reduce_s;
        sum.extract_s += x.extract_s;
        sum.facts += x.facts;
        if (x.bytes > largest.bytes) largest = x;
    }
    trace_layer_metrics(tracer, tallies, sheet);
    sheet.set("sat.plain_backend_s",
              plain.total_seconds()["sat.plain_backend"]);
    sheet.set("trace_overhead", untraced_s > 0 ? traced_s / untraced_s : 0.0);
    sheet.set("core.xl_probe.expand_s", sum.expand_s);
    sheet.set("core.linearize_s", sum.linearize_s);
    sheet.set("gf2.reduce_s", sum.reduce_s);
    sheet.set("core.extract_facts_s", sum.extract_s);
    sheet.set("core.extract_facts.kept", double(sum.facts));
    sheet.set("gf2.matrix.rows", double(largest.rows));
    sheet.set("gf2.matrix.cols", double(largest.cols));
    sheet.set("gf2.matrix.rank", double(largest.rank));
    sheet.set("gf2.matrix.density", largest.density());
    sheet.set("gf2.matrix.bytes", largest.bytes);
    sheet.set("anf.store.monomials",
              double(bosphorus::anf::MonomialStore::global().stats().entries));
    if (!opt.trace_out.empty() && !tracer.write_jsonl(opt.trace_out))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
}

RunResult run_workload(const Options& opt, const Workload& w) {
    RunResult res;
    MetricSheet sheet;
    const std::vector<Instance> insts = w.make(opt.seed);
    if (opt.trace) {
        run_traced(opt, w, insts, res, sheet);
    } else {
        SetupTimer setup([&] { w.make(opt.seed); });
        run_untraced(opt, w, insts, setup, res, sheet);
    }
    sheet.set("peak_rss_mb", peak_rss_mb());
    sheet.set("wrong", double(res.wrong_answers));
    if (opt.trace)
        sheet.emit_per_layer(res);
    else
        sheet.emit_end_to_end(res);
    return res;
}

}  // namespace

RunResult run_crypto_anf(const Options& opt) {
    return run_workload(opt, crypto_workload());
}

RunResult run_cnf_random(const Options& opt) {
    return run_workload(opt, cnf_workload());
}

}  // namespace perfbench
