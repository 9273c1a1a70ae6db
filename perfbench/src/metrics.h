// The benchmark's metric catalogue, mirroring BENCHMARK.json: every
// workload reports every end-to-end metric (untraced run) and every
// per-layer metric (traced run), so both lists live here, once.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

struct MetricDef {
    const char* name;
    const char* unit;
};

/// Gated end-to-end metrics (BENCHMARK.json "end_to_end").
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"solved", "count"},
    {"peak_rss_mb", "MB"},
};

/// End-to-end numbers printed for information only (see
/// perfbench/README.md): the wall-clock times, because the reference
/// machine's speed swings by 20-40% over minutes, more than the largest
/// bound allows; and numbers that are zero at this commit on some or all
/// workloads, or not defined on every workload.
inline constexpr MetricDef kEndToEndInfo[] = {
    {"solve_s", "s"},         {"jobs_per_s", "1/s"},
    {"latency_p50_s", "s"},   {"latency_p90_s", "s"},
    {"plain_solve_s", "s"},   {"wrong", "count"},
    {"late_ratio", "ratio"},  {"rejected_ratio", "ratio"},
};

/// Per-layer metrics (BENCHMARK.json "per_layer"); 0 where a layer does
/// not run on the workload. A traced run also prints the end-to-end info
/// metrics it can check (wrong answers).
inline constexpr MetricDef kPerLayer[] = {
    {"anf.parse_s", "s"},
    {"sat.dimacs.parse_s", "s"},
    {"core.cnf_to_anf_s", "s"},
    {"api.engine.run_s", "s"},
    {"api.engine.iterations", "count"},
    {"core.xl.step_s", "s"},
    {"core.elimlin.step_s", "s"},
    {"sat.step.step_s", "s"},
    {"core.anf_to_cnf_s", "s"},
    {"sat.backend_s", "s"},
    {"sat.backend.conflicts", "count"},
    {"sat.backend.propagations", "count"},
    {"sat.plain_backend_s", "s"},
    {"sat.plain_backend.conflicts", "count"},
    {"sat.plain_backend.propagations", "count"},
    {"xl.steps", "count"},
    {"xl.facts", "count"},
    {"xl.useful_ratio", "ratio"},
    {"elimlin.steps", "count"},
    {"elimlin.facts", "count"},
    {"elimlin.useful_ratio", "ratio"},
    {"sat.steps", "count"},
    {"sat.facts", "count"},
    {"sat.useful_ratio", "ratio"},
    {"core.xl_probe.expand_s", "s"},
    {"core.linearize_s", "s"},
    {"gf2.reduce_s", "s"},
    {"core.extract_facts_s", "s"},
    {"core.extract_facts.kept", "count"},
    {"gf2.matrix.rows", "count"},
    {"gf2.matrix.cols", "count"},
    {"gf2.matrix.rank", "count"},
    {"gf2.matrix.density", "ratio"},
    {"gf2.matrix.bytes", "bytes"},
    {"anf.store.monomials", "count"},
    {"core.xl.engine_share", "ratio"},
    {"sat.solve_share", "ratio"},
    {"trace_overhead", "ratio"},
    {"service.submit_s", "s"},
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p90_s", "s"},
    {"service.run_p50_s", "s"},
    {"service.run_p90_s", "s"},
    {"service.expired", "count"},
    {"service.overrun_max_s", "s"},
    {"service.rejected", "count"},
    {"service.ewma_run_s", "s"},
    {"api.session.sweep_job_p50_s", "s"},
};

/// Values by name; emit() writes one catalogue in its order, so a run
/// cannot silently omit a metric or invent one.
class MetricSheet {
public:
    void set(const std::string& name, double v) { values_[name] = v; }
    void add(const std::string& name, double v) { values_[name] += v; }

    /// What emit() does with a catalogue metric nobody set.
    enum class Unset { kAbort, kZero, kSkip };

    /// Append `defs` to `res`, in catalogue order.
    template <size_t N>
    void emit(RunResult& res, const MetricDef (&defs)[N], bool gated,
              Unset unset) const {
        for (const MetricDef& d : defs) {
            const auto it = values_.find(d.name);
            if (it == values_.end()) {
                if (unset == Unset::kSkip) continue;
                if (unset == Unset::kAbort) {
                    std::fprintf(stderr, "perfbench: metric %s not measured\n",
                                 d.name);
                    std::abort();
                }
            }
            res.add(d.name, it == values_.end() ? 0.0 : it->second, d.unit,
                    gated);
        }
    }

    /// Abort on a name that no catalogue lists (catches typos).
    void check_known() const {
        for (const auto& [name, v] : values_) {
            (void)v;
            if (!listed(name, kEndToEnd) && !listed(name, kEndToEndInfo) &&
                !listed(name, kPerLayer)) {
                std::fprintf(stderr, "perfbench: unknown metric %s\n",
                             name.c_str());
                std::abort();
            }
        }
    }

    /// The untraced run's output: gated end-to-end, then the info ones.
    void emit_end_to_end(RunResult& res) const {
        check_known();
        emit(res, kEndToEnd, true, Unset::kAbort);
        emit(res, kEndToEndInfo, false, Unset::kSkip);
    }
    /// The traced run's output.
    void emit_per_layer(RunResult& res) const {
        check_known();
        emit(res, kPerLayer, true, Unset::kZero);
        emit(res, kEndToEndInfo, false, Unset::kSkip);
    }

private:
    template <size_t N>
    static bool listed(const std::string& name, const MetricDef (&defs)[N]) {
        for (const MetricDef& d : defs)
            if (name == d.name) return true;
        return false;
    }

    std::map<std::string, double> values_;
};

}  // namespace perfbench
