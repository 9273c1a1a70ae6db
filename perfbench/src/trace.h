// In-memory span recorder for the traced (per-layer) runs.
//
// Spans are recorded only by the harness, around its calls into the
// library's public functions: nothing inside the library is instrumented.
// A span has a name, a start and end (seconds since the tracer was made),
// the index of the span that caused it (-1 for a root) and a request id
// shared by every span of one solve or service job. Spans are kept in
// memory and written out once, when the run ends.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bosphorus/engine.h"
#include "bosphorus/technique.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    long request = -1;
};

class Tracer {
public:
    /// A disabled tracer records nothing and costs one branch per span.
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /// RAII span: open on construction, closed on destruction. Nested
    /// scopes on the same thread become children of the enclosing one.
    class Scope {
    public:
        Scope(Tracer& t, const char* name, long request = -1);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* t_ = nullptr;
        long idx_ = -1;
        const Tracer* saved_owner_ = nullptr;
        long saved_parent_ = -1;
    };

    /// Self time per span name: each span's duration minus the part of it
    /// its child spans cover, summed over spans of the same name.
    std::map<std::string, double> self_seconds() const;
    /// Total (inclusive) time per span name.
    std::map<std::string, double> total_seconds() const;

    /// Write the spans as JSON lines. Returns false on an I/O error.
    bool write_jsonl(const std::string& path) const;

private:
    bool enabled_;
    bosphorus::Timer clock_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// Per-technique tallies gathered by TracedTechnique.
struct TechniqueCounts {
    size_t steps = 0;
    size_t facts = 0;   ///< fresh facts over all steps
    size_t useful = 0;  ///< steps that produced at least one fresh fact
};

/// Counts keyed by Technique::name() ("xl", "elimlin", "sat").
using TechniqueTallies = std::map<std::string, TechniqueCounts>;

/// The exact input of one XL step: the system's equations and the state
/// of the engine's random generator when the step began.
struct XlInput {
    std::vector<bosphorus::anf::Polynomial> equations;
    bosphorus::Rng rng;
};

/// Wrap every technique of make_default_techniques(cfg) in a decorator
/// that records a span per step() and tallies its facts the way the
/// engine does. With `xl_inputs`, each XL step's input is also kept (for
/// the XL phase probe). Install the result with
/// Engine::clear_techniques() + add_technique().
std::vector<std::unique_ptr<bosphorus::Technique>> traced_techniques(
    const bosphorus::EngineConfig& cfg, Tracer& tracer,
    TechniqueTallies& tallies, long request,
    std::vector<XlInput>* xl_inputs = nullptr);

}  // namespace perfbench
