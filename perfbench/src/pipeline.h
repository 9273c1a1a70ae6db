// The solve() path of include/bosphorus/solve.h, re-assembled from the
// library's public calls so the traced run can put a span around each
// layer: parse -> (CNF -> ANF) -> Engine -> ANF -> CNF -> back end, with
// the Engine's techniques wrapped by TracedTechnique. With a disabled
// Tracer it is the untraced twin the traced run is compared against.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "metrics.h"
#include "trace.h"

namespace perfbench {

/// What one traced solve produced. Every SAT answer is re-checked here
/// against the original input (`answer_ok`).
struct PipelineRecord {
    sat::Result verdict = sat::Result::kUnknown;
    bool answer_ok = true;  ///< false: a SAT model that fails the input
    std::string error;      ///< a failed call's status; empty on success
    double seconds = 0.0;   ///< wall-clock of the whole call
    size_t iterations = 0;
    uint64_t conflicts = 0;     ///< back-end counters (0 if decided in loop)
    uint64_t propagations = 0;
    TechniqueTallies tallies;   ///< per-technique steps / facts (engine arm)
};

/// Solve instance `text` (ANF text, or DIMACS when `cnf`) the way
/// bosphorus::solve(problem, cfg) does. `request` tags the spans; with a
/// traced run, `xl_inputs` collects each XL step's input.
PipelineRecord traced_solve(const std::string& text, bool cnf,
                            const bosphorus::SolveConfig& cfg, Tracer& tracer,
                            long request,
                            std::vector<XlInput>* xl_inputs = nullptr);

/// Per-technique tallies, summed into `into`.
void add_tallies(const TechniqueTallies& from, TechniqueTallies& into);

/// True iff two runs took the same steps and learnt the same number of
/// facts in every technique.
bool same_tallies(const TechniqueTallies& a, const TechniqueTallies& b);

/// Fill the per-layer metrics a traced run of traced_solve() measures:
/// self time per layer span, technique tallies and the layer shares.
void trace_layer_metrics(const Tracer& tracer,
                         const TechniqueTallies& tallies, MetricSheet& sheet);

}  // namespace perfbench
