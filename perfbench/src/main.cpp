// perfbench: the repository's end-to-end benchmark harness.
//
//   perfbench --workload crypto-anf|cnf-random|service-mixed --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints one "metric <name> <value> <unit>" line per number it measured,
// then, as the last line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits nonzero when any answer was wrong.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "anf/anf_parser.h"
#include "bench.h"
#include "sat/dimacs.h"
#include "util/mem.h"

namespace perfbench {

void RunResult::wrong(const std::string& what) {
    ++wrong_answers;
    std::fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
    return double(bosphorus::util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

bool anf_solution_ok(const std::vector<anf::Polynomial>& polys,
                     const std::vector<bool>& solution,
                     const bosphorus::AssumptionSet& assumptions) {
    for (const auto& p : polys) {
        for (anf::Var v : p.variables())
            if (v >= solution.size()) return false;
        if (p.evaluate(solution)) return false;
    }
    for (const auto& [var, value] : assumptions)
        if (var >= solution.size() || solution[var] != value) return false;
    return true;
}

bool cnf_solution_ok(const sat::Cnf& cnf, const std::vector<bool>& solution) {
    if (solution.size() < cnf.num_vars) return false;
    std::vector<sat::LBool> model(cnf.num_vars);
    for (size_t v = 0; v < cnf.num_vars; ++v)
        model[v] = solution[v] ? sat::LBool::kTrue : sat::LBool::kFalse;
    return sat::model_satisfies(cnf, model);
}

bosphorus::Result<bosphorus::SolveOutcome> solve_text(
    const std::string& text, bool cnf, const bosphorus::SolveConfig& cfg) {
    bosphorus::Result<bosphorus::Problem> problem =
        cnf ? bosphorus::Problem::from_cnf_text(text)
            : bosphorus::Problem::from_anf_text(text);
    if (!problem.ok()) return problem.status();
    return bosphorus::solve(*problem, cfg);
}

std::string anf_text(const std::vector<anf::Polynomial>& polys) {
    std::ostringstream out;
    anf::write_system(out, polys);
    return out.str();
}

std::string cnf_text(const sat::Cnf& cnf) {
    std::ostringstream out;
    sat::write_dimacs(out, cnf);
    return out.str();
}

const char* verdict_name(sat::Result r) {
    switch (r) {
        case sat::Result::kSat: return "SAT";
        case sat::Result::kUnsat: return "UNSAT";
        default: return "UNKNOWN";
    }
}

}  // namespace perfbench

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload crypto-anf|cnf-random|"
                 "service-mixed --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            opt.trace = std::string(val) == "1";
        } else if (key == "--trace-out") {
            opt.trace_out = val;
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0') return usage();
    }
    if (argc % 2 == 0 || !have_workload || !(opt.seconds > 0)) return usage();

    perfbench::RunResult res;
    if (opt.workload == "crypto-anf") {
        res = perfbench::run_crypto_anf(opt);
    } else if (opt.workload == "cnf-random") {
        res = perfbench::run_cnf_random(opt);
    } else if (opt.workload == "service-mixed") {
        res = perfbench::run_service_mixed(opt);
    } else {
        return usage();
    }

    for (const auto& m : res.metrics)
        std::printf("metric %-32s %.9g %s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.gated ? "" : "  (info)");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.correct() ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    bool first = true;
    for (const auto& m : res.metrics) {
        if (!m.gated) continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return res.correct() ? 0 : 1;
}
