// service-mixed: an in-process SolveService under a closed loop.
//
// Two workers run the paper-default engine config. Four client threads
// (one per core of the reference machine) each wait for a reply before
// sending the next request:
//   - three one-shot clients submit planted quadratic ANF jobs (40 vars x
//     60 equations, 5 s deadline); every 5th job is a Simon32/64 [2, 5]
//     key recovery under a 0.5 s deadline, which XL cannot honour today;
//   - one client keeps a warm session on a planted quadratic base and
//     sweeps assumption jobs over it (submit_assumptions).
// It is the only workload with queueing, fair lanes, deadline expiry and
// warm re-solves next to cold ones.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "anf/monomial_store.h"
#include "bench.h"
#include "bosphorus/service.h"
#include "cnfgen/generators.h"
#include "crypto/simon.h"
#include "metrics.h"
#include "pipeline.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using bosphorus::AssumptionSet;
using bosphorus::JobOutcome;
using bosphorus::JobState;
using bosphorus::Problem;
using bosphorus::SolveService;

namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kOneShotClients = 3;
// 105 jobs per pass, 15 of them Simon: the p90 latency falls well inside
// the Simon jobs (with every 10th, it sat on the edge between the Simon
// and the planted jobs and jumped between them from run to run).
constexpr size_t kJobsPerClient = 25;  // one-shot jobs per client per pass
constexpr size_t kSimonEvery = 5;      // every 5th one-shot job is Simon
constexpr size_t kSweepJobs = 30;      // assumption jobs per pass
constexpr size_t kAssumptions = 3;     // assumptions per job
constexpr double kPlantedTimeout = 5.0;
constexpr double kSimonTimeout = 0.5;

struct Inputs {
    // Each one-shot job's ANF text (what the service receives) and the
    // generator's own polynomials (what its answer is checked against).
    std::vector<std::string> planted, simon;
    std::vector<std::vector<anf::Polynomial>> planted_polys, simon_polys;
    std::string base;  // the session's base system
    std::vector<anf::Polynomial> base_polys;
    std::vector<AssumptionSet> sweeps;  // one per sweep job
};

Inputs make_inputs(uint64_t seed) {
    Inputs in;
    bosphorus::Rng rng(seed);
    // A distinct instance for every one-shot job.
    const size_t n_simon = kOneShotClients * kJobsPerClient / kSimonEvery;
    const size_t n_planted = kOneShotClients * kJobsPerClient - n_simon;
    for (size_t i = 0; i < n_planted; ++i) {
        auto p = bosphorus::cnfgen::planted_quadratic_anf(40, 60, 3, 2, rng);
        in.planted.push_back(anf_text(p.polys));
        in.planted_polys.push_back(std::move(p.polys));
    }
    const bosphorus::crypto::Simon32 simon(5);
    for (size_t i = 0; i < n_simon; ++i) {
        auto p = simon.encode(2, rng);
        in.simon.push_back(anf_text(p.polys));
        in.simon_polys.push_back(std::move(p.polys));
    }
    auto base = bosphorus::cnfgen::planted_quadratic_anf(40, 60, 3, 2, rng);
    in.base = anf_text(base.polys);
    in.base_polys = std::move(base.polys);
    // Assumptions agree with the planted model, so every sweep job is SAT.
    for (size_t j = 0; j < kSweepJobs; ++j) {
        AssumptionSet set;
        while (set.size() < kAssumptions) {
            const auto v = static_cast<anf::Var>(rng.below(40));
            if (std::none_of(set.begin(), set.end(),
                             [&](const auto& a) { return a.first == v; }))
                set.emplace_back(v, bool(base.planted[v]));
        }
        in.sweeps.push_back(std::move(set));
    }
    return in;
}

bosphorus::ServiceConfig service_config() {
    bosphorus::ServiceConfig cfg;  // engine: EngineConfig{}, paper defaults
    cfg.n_workers = kWorkers;
    // Deadline-aware admission sheds a Simon job only when its EWMA
    // estimate happens to cross the 0.5 s deadline: 2-4 of ~160 submits,
    // varying from run to run. Off, every job runs and the expiry and
    // lateness counts are exact.
    cfg.deadline_admission = false;
    return cfg;
}

/// What one job looked like from its client.
struct JobRecord {
    std::string what;  // client and job index, for messages
    bool simon = false;
    bool sweep = false;
    bool rejected = false;
    double latency_s = 0.0;  // submit to outcome, as the client saw it
    double timeout_s = 0.0;
    const std::vector<anf::Polynomial>* polys = nullptr;  // the job's input
    const AssumptionSet* assumptions = nullptr;
    bool have_outcome = false;
    JobOutcome outcome;
};

struct Pass {
    std::vector<JobRecord> jobs;  // in client order: comparable across passes
    double makespan_s = 0.0;
    bosphorus::ServiceStats stats;
};

/// One closed-loop request: `submit` (parse + submit, or an assumption
/// submit), then wait for the outcome. Fills r's timing and outcome.
template <typename Submit>
void request(SolveService& svc, Tracer& tr, long id, JobRecord& r,
             Submit&& submit) {
    const bosphorus::Timer t;
    const bosphorus::Result<bosphorus::JobId> job = submit();
    if (job.ok()) {
        const Tracer::Scope span(tr, "service.wait", id);
        bosphorus::Result<JobOutcome> out = svc.wait(*job);
        if (out.ok()) {
            r.have_outcome = true;
            r.outcome = std::move(*out);
        }
    } else {
        r.rejected = job.status().code() == bosphorus::StatusCode::kUnavailable;
    }
    r.latency_s = t.seconds();
}

/// One closed-loop pass on a fresh service: every client runs its fixed
/// request sequence to the end.
Pass run_pass(const Inputs& in, Tracer& tr) {
    SolveService svc(service_config());
    Pass pass;
    std::vector<std::vector<JobRecord>> per_client(kOneShotClients + 1);
    auto base = Problem::from_anf_text(in.base);
    const bool session_ok =
        base.ok() && svc.open_session("sweeper", "base", std::move(*base)).ok();

    const bosphorus::Timer makespan;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kOneShotClients; ++c) {
        clients.emplace_back([&, c] {
            const std::string client = "oneshot-" + std::to_string(c);
            for (size_t j = 0; j < kJobsPerClient; ++j) {
                const size_t k = c * kJobsPerClient + j;
                const size_t simons_before = k / kSimonEvery;
                JobRecord r;
                r.what = client + "#" + std::to_string(j);
                r.simon = j % kSimonEvery == kSimonEvery - 1;
                const size_t pick = r.simon ? simons_before : k - simons_before;
                const std::string& text =
                    r.simon ? in.simon[pick] : in.planted[pick];
                r.polys = r.simon ? &in.simon_polys[pick]
                                  : &in.planted_polys[pick];
                r.timeout_s = r.simon ? kSimonTimeout : kPlantedTimeout;
                request(svc, tr, long(k), r, [&] {
                    // The service receives the instance as text.
                    auto problem = [&] {
                        const Tracer::Scope span(tr, "anf.parse", long(k));
                        return Problem::from_anf_text(text);
                    }();
                    if (!problem.ok())
                        return bosphorus::Result<bosphorus::JobId>(
                            problem.status());
                    const Tracer::Scope span(tr, "service.submit", long(k));
                    return svc.submit(
                        {client, std::move(*problem), r.timeout_s, ""});
                });
                per_client[c].push_back(std::move(r));
            }
        });
    }
    if (!session_ok) {
        JobRecord r;  // no outcome: check_pass reports it as an error
        r.what = "sweeper open_session";
        per_client[kOneShotClients].push_back(std::move(r));
    }
    clients.emplace_back([&] {
        for (size_t j = 0; j < kSweepJobs && session_ok; ++j) {
            JobRecord r;
            r.what = "sweeper#" + std::to_string(j);
            r.sweep = true;
            r.timeout_s = kPlantedTimeout;
            r.polys = &in.base_polys;
            r.assumptions = &in.sweeps[j];
            const long id = long(kOneShotClients * kJobsPerClient + j);
            request(svc, tr, id, r, [&] {
                const Tracer::Scope span(tr, "service.submit", id);
                return svc.submit_assumptions("sweeper", "base", in.sweeps[j],
                                              r.timeout_s);
            });
            per_client[kOneShotClients].push_back(std::move(r));
        }
    });
    for (auto& t : clients) t.join();
    pass.makespan_s = makespan.seconds();
    pass.stats = svc.stats();
    for (auto& jobs : per_client)
        for (auto& r : jobs) pass.jobs.push_back(std::move(r));
    return pass;
}

/// Returned after its deadline plus the grace the deadline contract
/// allows, max(0.5 s, 10%).
bool late(const JobRecord& r) {
    return !r.rejected &&
           r.latency_s > r.timeout_s + std::max(0.5, 0.1 * r.timeout_s);
}

bool decided(const JobRecord& r) {
    return r.have_outcome && r.outcome.report.verdict != sat::Result::kUnknown;
}

/// Check every job: planted and sweep jobs are satisfiable, so any verdict
/// but SAT from a job that ran to the end is wrong (their 5 s deadline is
/// about 30 times their run time); every SAT solution must satisfy the
/// job's polynomials plus its assumptions; an accepted job must not fail.
/// Counts attempted and failed operations: rejections, and planted or
/// sweep jobs that expired (the service kept their deadline), fail.
void check_pass(const Pass& pass, RunResult& res) {
    for (const JobRecord& r : pass.jobs) {
        ++res.attempted;
        if (r.rejected) {
            ++res.failed;
            continue;
        }
        if (!r.have_outcome || r.outcome.state == JobState::kFailed ||
            r.outcome.state == JobState::kCancelled) {
            res.wrong(r.what + ": job error " +
                      (r.have_outcome ? r.outcome.error.to_string()
                                      : std::string("(no outcome)")));
            ++res.failed;
            continue;
        }
        const auto& rep = r.outcome.report;
        const bool sat_ok =
            rep.verdict != sat::Result::kSat ||
            anf_solution_ok(*r.polys, rep.solution,
                            r.assumptions ? *r.assumptions : AssumptionSet{});
        if (!sat_ok) {
            res.wrong(r.what + ": solution fails the job");
            ++res.failed;
        } else if (!r.simon && rep.verdict != sat::Result::kSat) {
            if (r.outcome.state == JobState::kExpired) {
                std::fprintf(stderr, "perfbench: %s expired\n",
                             r.what.c_str());
            } else {
                res.wrong(r.what + ": " + verdict_name(rep.verdict) +
                          " on a satisfiable job");
            }
            ++res.failed;
        }
    }
}

void end_to_end(const std::vector<Pass>& passes, MetricSheet& sheet) {
    std::vector<double> sums, solved, latency;
    double jobs = 0, makespan = 0, late_jobs = 0, rejected = 0;
    for (const Pass& p : passes) {
        double sum = 0, dec = 0;
        for (const JobRecord& r : p.jobs) {
            jobs += 1;
            rejected += r.rejected;
            late_jobs += late(r);
            if (r.rejected) continue;
            sum += r.latency_s;
            dec += decided(r);
            latency.push_back(r.latency_s);
        }
        sums.push_back(sum);
        solved.push_back(dec);
        makespan += p.makespan_s;
    }
    sheet.set("solve_s", median(sums));
    sheet.set("jobs_per_s", (jobs - rejected) / makespan);
    sheet.set("latency_p50_s", quantile(latency, 0.5));
    sheet.set("latency_p90_s", quantile(latency, 0.9));
    sheet.set("solved", median(solved));
    sheet.set("late_ratio", late_jobs / jobs);
    sheet.set("rejected_ratio", rejected / jobs);
}

void per_layer(const Pass& traced, const Tracer& tr, MetricSheet& sheet) {
    std::vector<double> wait, run, sweep;
    double expired = 0, overrun = 0;
    TechniqueTallies tallies;
    for (const JobRecord& r : traced.jobs) {
        if (!r.have_outcome) continue;
        const JobOutcome& o = r.outcome;
        wait.push_back(o.queued_s);
        run.push_back(o.run_s);
        if (r.sweep) sweep.push_back(r.latency_s);
        if (o.state == JobState::kExpired) {
            ++expired;
            overrun = std::max(overrun, o.run_s - o.timeout_s);
        }
        for (const auto& t : o.report.techniques) {
            tallies[t.name].steps += t.steps;
            tallies[t.name].facts += t.facts;
        }
        sheet.add("api.engine.iterations", double(o.report.iterations));
    }
    for (const auto& [name, c] : tallies) {
        sheet.set(name + ".steps", double(c.steps));
        sheet.set(name + ".facts", double(c.facts));
    }
    const auto self = tr.self_seconds();
    for (const char* span : {"anf.parse", "service.submit"}) {
        const auto it = self.find(span);
        sheet.set(std::string(span) + "_s", it == self.end() ? 0.0 : it->second);
    }
    sheet.set("service.queue_wait_p50_s", quantile(wait, 0.5));
    sheet.set("service.queue_wait_p90_s", quantile(wait, 0.9));
    sheet.set("service.run_p50_s", quantile(run, 0.5));
    sheet.set("service.run_p90_s", quantile(run, 0.9));
    sheet.set("service.expired", expired);
    sheet.set("service.overrun_max_s", overrun);
    sheet.set("service.rejected", double(traced.stats.rejected));
    sheet.set("service.ewma_run_s", traced.stats.ewma_run_s);
    sheet.set("api.session.sweep_job_p50_s", quantile(sweep, 0.5));
    sheet.set("anf.store.monomials",
              double(bosphorus::anf::MonomialStore::global().stats().entries));
}

/// The traced and untraced passes must agree on every job both ran:
/// verdict, and per-technique facts where the job ran to completion.
void compare_passes(const Pass& a, const Pass& b, RunResult& res) {
    for (size_t i = 0; i < a.jobs.size() && i < b.jobs.size(); ++i) {
        const JobRecord& x = a.jobs[i];
        const JobRecord& y = b.jobs[i];
        if (!x.have_outcome || !y.have_outcome) continue;
        const auto& rx = x.outcome.report;
        const auto& ry = y.outcome.report;
        bool same = rx.verdict == ry.verdict;
        if (x.outcome.state == JobState::kDone &&
            y.outcome.state == JobState::kDone) {
            same = same && rx.techniques.size() == ry.techniques.size();
            for (size_t t = 0; same && t < rx.techniques.size(); ++t)
                same = rx.techniques[t].facts == ry.techniques[t].facts;
        }
        if (!same) res.wrong(x.what + ": traced and untraced runs differ");
    }
}

}  // namespace

RunResult run_service_mixed(const Options& opt) {
    RunResult res;
    MetricSheet sheet;
    const Inputs in = make_inputs(opt.seed);
    Tracer off(false);
    if (!opt.trace) {
        // Half the set-up samples before the passes, half after them: a
        // pass is one long operation, with no gaps between its jobs.
        SetupTimer setup([&] {
            make_inputs(opt.seed);
            const SolveService svc(service_config());
        });
        setup.sample(8);
        std::vector<Pass> passes;
        const bosphorus::Timer window;
        do {
            passes.push_back(run_pass(in, off));
            check_pass(passes.back(), res);
        } while (window.seconds() + passes.back().makespan_s <= opt.seconds);
        setup.sample(8);
        sheet.set("setup_s", setup.finish());
        end_to_end(passes, sheet);
        sheet.set("peak_rss_mb", peak_rss_mb());
        sheet.set("wrong", double(res.wrong_answers));
        sheet.emit_end_to_end(res);
        return res;
    }
    Tracer tracer(true);
    const Pass untraced = run_pass(in, off);
    const Pass traced = run_pass(in, tracer);
    check_pass(untraced, res);
    check_pass(traced, res);
    compare_passes(untraced, traced, res);
    per_layer(traced, tracer, sheet);
    double sum_traced = 0, sum_untraced = 0;
    for (const JobRecord& r : traced.jobs) sum_traced += r.latency_s;
    for (const JobRecord& r : untraced.jobs) sum_untraced += r.latency_s;
    sheet.set("trace_overhead",
              sum_untraced > 0 ? sum_traced / sum_untraced : 0.0);
    if (!opt.trace_out.empty() && !tracer.write_jsonl(opt.trace_out))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
    sheet.set("wrong", double(res.wrong_answers));
    sheet.emit_per_layer(res);
    return res;
}

}  // namespace perfbench
