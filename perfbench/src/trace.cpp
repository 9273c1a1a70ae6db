#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bosphorus/engine.h"
#include "core/anf_system.h"

namespace perfbench {

namespace {

// The innermost open span of this thread and its tracer: the parent of
// the next span opened on the same tracer.
thread_local const Tracer* tls_owner = nullptr;
thread_local long tls_parent = -1;

}  // namespace

Tracer::Scope::Scope(Tracer& t, const char* name, long request) {
    if (!t.enabled_) return;
    t_ = &t;
    saved_owner_ = tls_owner;
    saved_parent_ = tls_parent;
    const long parent = tls_owner == &t ? tls_parent : -1;
    std::lock_guard<std::mutex> lk(t.mu_);
    if (request < 0 && parent >= 0) request = t.spans_[parent].request;
    idx_ = static_cast<long>(t.spans_.size());
    t.spans_.push_back({name, t.clock_.seconds(), 0.0, parent, request});
    tls_owner = &t;
    tls_parent = idx_;
}

Tracer::Scope::~Scope() {
    if (t_ == nullptr) return;
    const double now = t_->clock_.seconds();
    std::lock_guard<std::mutex> lk(t_->mu_);
    t_->spans_[idx_].end = now;
    tls_owner = saved_owner_;
    tls_parent = saved_parent_;
}

std::map<std::string, double> Tracer::self_seconds() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0) child[s.parent] += s.end - s.start;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] +=
            std::max(0.0, spans_[i].end - spans_[i].start - child[i]);
    return out;
}

std::map<std::string, double> Tracer::total_seconds() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.end - s.start;
    return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"parent\": %ld, \"request\": %ld}\n",
                     i, s.name.c_str(), s.start, s.end, s.parent, s.request);
    }
    return std::fclose(f) == 0;
}

namespace {

/// Span name of one technique's step ("core.xl.step", "sat.step.step").
std::string step_span_name(const std::string& technique) {
    if (technique == "sat") return "sat.step.step";
    return "core." + technique + ".step";
}

/// Decorator: forwards everything to the wrapped technique, timing each
/// step() as a span and counting its fresh facts.
class TracedTechnique final : public bosphorus::Technique {
public:
    TracedTechnique(std::unique_ptr<bosphorus::Technique> inner,
                    Tracer& tracer, TechniqueCounts& counts, long request,
                    std::vector<XlInput>* inputs)
        : inner_(std::move(inner)),
          span_name_(step_span_name(inner_->name())),
          tracer_(tracer),
          counts_(counts),
          request_(request),
          inputs_(inputs) {}

    std::string name() const override { return inner_->name(); }

    bosphorus::StepReport step(bosphorus::core::AnfSystem& sys,
                               bosphorus::FactSink& sink) override {
        if (inputs_ != nullptr) inputs_->push_back({sys.equations(), sink.rng()});
        const size_t before = sink.fresh();
        bosphorus::StepReport rep;
        {
            const Tracer::Scope span(tracer_, span_name_.c_str(), request_);
            rep = inner_->step(sys, sink);
        }
        // The engine credits a step with the sink's fresh facts plus the
        // ones the step reports itself.
        const size_t fresh = sink.fresh() - before + rep.facts_fresh;
        ++counts_.steps;
        counts_.facts += fresh;
        if (fresh > 0) ++counts_.useful;
        return rep;
    }

    void begin_run() override { inner_->begin_run(); }
    void reset_for_resolve() override { inner_->reset_for_resolve(); }
    void bind_base(const std::vector<bosphorus::anf::Polynomial>& base,
                   size_t num_vars) override {
        inner_->bind_base(base, num_vars);
    }

private:
    std::unique_ptr<bosphorus::Technique> inner_;
    std::string span_name_;
    Tracer& tracer_;
    TechniqueCounts& counts_;
    long request_;
    std::vector<XlInput>* inputs_;
};

}  // namespace

std::vector<std::unique_ptr<bosphorus::Technique>> traced_techniques(
    const bosphorus::EngineConfig& cfg, Tracer& tracer,
    TechniqueTallies& tallies, long request,
    std::vector<XlInput>* xl_inputs) {
    std::vector<std::unique_ptr<bosphorus::Technique>> out;
    for (auto& t : bosphorus::make_default_techniques(cfg)) {
        TechniqueCounts& counts = tallies[t->name()];
        std::vector<XlInput>* inputs = t->name() == "xl" ? xl_inputs : nullptr;
        out.push_back(std::make_unique<TracedTechnique>(
            std::move(t), tracer, counts, request, inputs));
    }
    return out;
}

}  // namespace perfbench
