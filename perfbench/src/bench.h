// Shared pieces of the perfbench harness: run options, the result record
// every workload fills, small statistics helpers and answer checks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "anf/polynomial.h"
#include "bosphorus/bosphorus.h"
#include "sat/types.h"
#include "util/timer.h"

namespace perfbench {

namespace anf = bosphorus::anf;
namespace sat = bosphorus::sat;

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;  ///< measured window of one run
    bool trace = false;     ///< per-layer run instead of the end-to-end one
    std::string trace_out;  ///< where a traced run writes its spans
};

/// One reported number. `gated` metrics go into the final JSON line (the
/// set BENCHMARK.json lists for the run's mode); the others are printed as
/// information only.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool gated = true;
};

struct RunResult {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t wrong_answers = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit,
             bool gated = true) {
        metrics.push_back({std::move(name), value, std::move(unit), gated});
    }
    /// Record a wrong answer (a verdict contradicting the known answer, an
    /// unverified model, an error or a traced/untraced mismatch): the run
    /// is marked incorrect and the reason is printed to stderr.
    void wrong(const std::string& what);
    bool correct() const { return wrong_answers == 0; }
};

/// Quantile by linear interpolation between closest ranks; 0 for no data.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// The set-up metric: the median wall-clock of timed calls of a set-up
/// function, spread over the whole run. A set-up takes milliseconds, and
/// one slow second of the machine (at start-up, or on one CPU) would move
/// every call timed in it; spread out, it moves few of them. The caller
/// makes the first, untimed call itself: the one whose result it uses.
class SetupTimer {
public:
    explicit SetupTimer(std::function<void()> setup)
        : setup_(std::move(setup)) {}

    /// Time `n` calls now.
    void sample(size_t n) {
        for (size_t i = 0; i < n; ++i) {
            const bosphorus::Timer t;
            setup_();
            times_.push_back(t.seconds());
        }
        since_.restart();
    }
    /// Time one call if a second has passed since the last one; called
    /// between operations.
    void tick() {
        if (since_.seconds() >= 1.0) sample(1);
    }
    /// Top up to `min_samples` timed calls; the median, in seconds.
    double finish(size_t min_samples = 15) {
        if (times_.size() < min_samples) sample(min_samples - times_.size());
        return median(times_);
    }

private:
    std::function<void()> setup_;
    std::vector<double> times_;
    bosphorus::Timer since_;
};

/// True iff `solution` satisfies every polynomial (p = 0) and assumption.
bool anf_solution_ok(const std::vector<anf::Polynomial>& polys,
                     const std::vector<bool>& solution,
                     const bosphorus::AssumptionSet& assumptions = {});

/// True iff `solution` (indexed by variable) satisfies every clause.
bool cnf_solution_ok(const sat::Cnf& cnf,
                     const std::vector<bool>& solution);

/// Parse `text` (ANF, or DIMACS when `cnf`) and bosphorus::solve() it:
/// the end-to-end call the untraced runs time.
bosphorus::Result<bosphorus::SolveOutcome> solve_text(
    const std::string& text, bool cnf, const bosphorus::SolveConfig& cfg);

std::string anf_text(const std::vector<anf::Polynomial>& polys);
std::string cnf_text(const sat::Cnf& cnf);

const char* verdict_name(sat::Result r);

RunResult run_crypto_anf(const Options& opt);
RunResult run_cnf_random(const Options& opt);
RunResult run_service_mixed(const Options& opt);

}  // namespace perfbench
