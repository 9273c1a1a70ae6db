// The multi-tenant solve service (include/bosphorus/service.h) and its
// wire protocol (src/service/protocol.h).
//
// Determinism note: this container may expose a single core, so no test
// relies on real parallelism or timing-dependent hard instances. Blocking
// is produced deterministically instead, by a "blocker" SAT backend
// registered in this binary: its solve() parks until the engine's
// terminate hook (the job's cancellation/deadline token) fires, which
// pins a worker slot exactly until the test cancels the job, its deadline
// expires, or the service shuts down.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "service/protocol.h"
#include "test_util.h"

namespace bosphorus {
namespace {

using namespace std::chrono_literals;

Problem paper_example() {
    auto p = Problem::from_anf_text(
        "x1*x2 + x3 + x4 + 1\n"
        "x1*x2*x3 + x1 + x3 + 1\n"
        "x1*x3 + x3*x4*x5 + x3\n"
        "x2*x3 + x3*x5 + 1\n"
        "x2*x3 + x5 + 1\n");
    EXPECT_TRUE(p.ok());
    return *p;
}

EngineConfig small_config() {
    EngineConfig cfg;
    cfg.xl.m_budget = 16;
    cfg.elimlin.m_budget = 16;
    cfg.sat_conflicts_start = 1000;
    cfg.sat_conflicts_max = 10'000;
    cfg.sat_conflicts_step = 1000;
    cfg.max_iterations = 8;
    cfg.time_budget_s = 10.0;
    cfg.emit_processed = false;
    return cfg;
}

// ---- the blocker backend ---------------------------------------------------

std::atomic<int> g_blocker_entered{0};  // solve() calls that have parked

/// A SolverBackend whose solve() blocks until the terminate hook fires.
class BlockerBackend : public sat::SolverBackend {
public:
    std::string name() const override { return "blocker"; }
    void ensure_vars(size_t n) override { n_vars_ = std::max(n_vars_, n); }
    size_t num_vars() const override { return n_vars_; }
    bool add_clause(const std::vector<sat::Lit>&) override { return true; }
    bool add_xor(const sat::XorConstraint&) override { return true; }
    void assume(sat::Lit) override {}

    sat::Result solve(int64_t, double) override {
        g_blocker_entered.fetch_add(1, std::memory_order_release);
        while (!interrupted_.load(std::memory_order_acquire) &&
               !(terminate_ && terminate_())) {
            std::this_thread::sleep_for(1ms);
        }
        return sat::Result::kUnknown;
    }

    sat::LBool value(sat::Var) const override { return sat::LBool::kFalse; }
    bool failed(sat::Lit) const override { return false; }
    bool okay() const override { return true; }
    void interrupt() override {
        interrupted_.store(true, std::memory_order_release);
    }
    void clear_interrupt() override {
        interrupted_.store(false, std::memory_order_release);
    }
    void set_terminate_callback(std::function<bool()> cb) override {
        terminate_ = std::move(cb);
    }
    sat::Solver::Stats stats() const override { return {}; }

private:
    size_t n_vars_ = 0;
    std::function<bool()> terminate_;
    std::atomic<bool> interrupted_{false};
};

void register_blocker_once() {
    static const bool done = [] {
        sat::BackendInfo info;
        info.name = "blocker";
        info.description = "test backend; solve() parks until terminated";
        (void)sat::BackendRegistry::global().register_backend(
            info, [](const std::string&)
                      -> Result<std::unique_ptr<sat::SolverBackend>> {
                return std::unique_ptr<sat::SolverBackend>(
                    new BlockerBackend());
            });
        return true;
    }();
    (void)done;
}

/// Service config whose every job parks in the blocker backend: the only
/// registered technique is the SAT step, routed to "blocker".
ServiceConfig blocking_service(unsigned workers, size_t max_queue) {
    register_blocker_once();
    ServiceConfig cfg;
    cfg.engine = small_config();
    cfg.engine.use_xl = false;
    cfg.engine.use_elimlin = false;
    cfg.engine.sat_backend = "blocker";
    cfg.n_workers = workers;
    cfg.max_queued_jobs = max_queue;
    cfg.default_timeout_s = 30.0;
    return cfg;
}

/// A problem initial propagation cannot touch (single quadratic, many
/// models), so a blocking-service job really reaches the SAT step.
Problem opaque_problem() {
    auto p = Problem::from_anf_text("x1*x2 + x3\n");
    EXPECT_TRUE(p.ok());
    return *p;
}

/// Wait (bounded) until `n` blocker solves have parked.
void wait_blocker_entered(int n) {
    const Timer t;
    while (g_blocker_entered.load(std::memory_order_acquire) < n &&
           t.seconds() < 30.0) {
        std::this_thread::sleep_for(1ms);
    }
    ASSERT_GE(g_blocker_entered.load(std::memory_order_acquire), n);
}

JobRequest one_shot(const std::string& client, Problem p,
                    double timeout_s = 0.0) {
    JobRequest req;
    req.client = client;
    req.problem = std::move(p);
    req.timeout_s = timeout_s;
    return req;
}

// ---- one-shot jobs vs direct Engine calls ----------------------------------

TEST(Service, OneShotVerdictMatchesEngine) {
    const EngineConfig cfg = small_config();
    const Result<Report> direct = Engine(cfg).run(paper_example());
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(direct->verdict, sat::Result::kSat);

    ServiceConfig scfg;
    scfg.engine = cfg;
    scfg.n_workers = 2;
    SolveService svc(scfg);
    const Result<JobId> id = svc.submit(one_shot("a", paper_example()));
    ASSERT_TRUE(id.ok());
    const Result<JobOutcome> out = svc.wait(*id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->state, JobState::kDone);
    EXPECT_EQ(out->report.verdict, sat::Result::kSat);
    // Bit-identical: same solution as the direct run (the instance has a
    // unique model, and service jobs run the same Engine on the same
    // config and seed).
    EXPECT_EQ(out->report.solution, direct->solution);
    EXPECT_GE(out->run_s, 0.0);
    EXPECT_EQ(out->timeout_s, scfg.default_timeout_s);
}

TEST(Service, ProcessedOutputIsOptIn) {
    // A service job's result is its verdict and solution; the processed
    // ANF/CNF is built only when the config asks for it.
    for (const bool emit : {false, true}) {
        ServiceConfig scfg;
        EXPECT_FALSE(scfg.engine.emit_processed);
        scfg.engine.emit_processed = emit;
        scfg.n_workers = 1;
        SolveService svc(scfg);
        const Result<JobId> id = svc.submit(one_shot("a", paper_example()));
        ASSERT_TRUE(id.ok());
        const Result<JobOutcome> out = svc.wait(*id);
        ASSERT_TRUE(out.ok());
        EXPECT_EQ(out->report.verdict, sat::Result::kSat);
        EXPECT_EQ(out->report.processed_cnf.cnf.num_vars > 0, emit);
        EXPECT_EQ(out->report.processed_anf.empty(), !emit);
    }
}

TEST(Service, EightConcurrentClientsMixedWorkloads) {
    // The acceptance scenario: >= 8 concurrent clients against ONE
    // service, mixing one-shot jobs and warm session sweeps; every
    // verdict must match the direct library call.
    const Problem base = paper_example();
    const EngineConfig cfg = small_config();

    // Direct reference: x5 = 0 is consistent (the unique model is
    // 1,1,1,1,0), x5 = 1 is not.
    Session ref(base, cfg);
    ref.push();
    ref.assume(4, false);
    const auto ref_sat = ref.solve();
    ASSERT_TRUE(ref_sat.ok());
    ASSERT_EQ(ref_sat->verdict, sat::Result::kSat);
    ref.pop();
    ref.push();
    ref.assume(4, true);
    const auto ref_unsat = ref.solve();
    ASSERT_TRUE(ref_unsat.ok());
    ASSERT_EQ(ref_unsat->verdict, sat::Result::kUnsat);
    ref.pop();

    ServiceConfig scfg;
    scfg.engine = cfg;
    scfg.n_workers = 4;
    scfg.max_queued_jobs = 256;
    SolveService svc(scfg);

    constexpr int kClients = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&svc, &base, &failures, c] {
            const std::string me = "client-" + std::to_string(c);
            auto check = [&failures](bool ok) {
                if (!ok) failures.fetch_add(1);
            };
            if (c % 2 == 0) {
                // One-shot tenant: two jobs, one SAT one UNSAT.
                const Result<JobId> sat_id =
                    svc.submit(one_shot(me, paper_example()));
                check(sat_id.ok());
                auto unsat = Problem::from_cnf_text("p cnf 1 2\n1 0\n-1 0\n");
                check(unsat.ok());
                const Result<JobId> unsat_id =
                    svc.submit(one_shot(me, *unsat));
                check(unsat_id.ok());
                if (failures.load() > 0) return;
                const auto a = svc.wait(*sat_id);
                const auto b = svc.wait(*unsat_id);
                check(a.ok() && a->state == JobState::kDone &&
                      a->report.verdict == sat::Result::kSat);
                check(b.ok() && b->state == JobState::kDone &&
                      b->report.verdict == sat::Result::kUnsat);
            } else {
                // Sweep tenant: a warm session probing both x5 values.
                check(svc.open_session(me, "s", base).ok());
                const Result<JobId> sat_id =
                    svc.submit_assumptions(me, "s", {{4, false}});
                const Result<JobId> unsat_id =
                    svc.submit_assumptions(me, "s", {{4, true}});
                check(sat_id.ok() && unsat_id.ok());
                if (failures.load() > 0) return;
                const auto a = svc.wait(*sat_id);
                const auto b = svc.wait(*unsat_id);
                check(a.ok() && a->state == JobState::kDone &&
                      a->report.verdict == sat::Result::kSat);
                check(b.ok() && b->state == JobState::kDone &&
                      b->report.verdict == sat::Result::kUnsat);
                check(svc.close_session(me, "s").ok());
            }
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.accepted, 16u);
    EXPECT_EQ(stats.completed, 16u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.clients, 8u);
    EXPECT_EQ(stats.open_sessions, 0u);  // all closed again
    EXPECT_EQ(stats.backend_verdicts.at("native").sat, 8u);
    EXPECT_EQ(stats.backend_verdicts.at("native").unsat, 8u);
}

// ---- sessions ---------------------------------------------------------------

TEST(Service, SessionJobsRunInSubmitOrderAndStayWarm) {
    ServiceConfig scfg;
    scfg.engine = small_config();
    scfg.n_workers = 4;  // more slots than the session may use at once
    SolveService svc(scfg);

    ASSERT_TRUE(svc.open_session("a", "sweep", paper_example()).ok());
    EXPECT_EQ(svc.stats().warm_sessions, 0u);  // lazily materialised

    std::vector<JobId> ids;
    for (int i = 0; i < 6; ++i) {
        const bool value = i % 2 != 0;  // alternate x5 = 0 / x5 = 1
        const Result<JobId> id =
            svc.submit_assumptions("a", "sweep", {{4, value}});
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
    }
    for (int i = 0; i < 6; ++i) {
        const auto out = svc.wait(ids[size_t(i)]);
        ASSERT_TRUE(out.ok());
        EXPECT_EQ(out->state, JobState::kDone);
        EXPECT_EQ(out->report.verdict, i % 2 ? sat::Result::kUnsat
                                             : sat::Result::kSat);
    }
    EXPECT_EQ(svc.stats().warm_sessions, 1u);  // one Session served all 6
    ASSERT_TRUE(svc.close_session("a", "sweep").ok());
    EXPECT_EQ(svc.stats().open_sessions, 0u);
}

TEST(Service, SessionValidation) {
    SolveService svc([] {
        ServiceConfig c;
        c.engine = small_config();
        c.n_workers = 1;
        c.max_sessions_per_client = 2;
        return c;
    }());

    EXPECT_EQ(svc.submit_assumptions("a", "nope", {{0, true}}).status().code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(svc.open_session("a", "s1", paper_example()).ok());
    EXPECT_EQ(svc.open_session("a", "s1", paper_example()).code(),
              StatusCode::kInvalidArgument);  // duplicate name
    ASSERT_TRUE(svc.open_session("a", "s2", paper_example()).ok());
    EXPECT_EQ(svc.open_session("a", "s3", paper_example()).code(),
              StatusCode::kUnavailable);  // per-client pool cap
    // Another client has its own pool.
    EXPECT_TRUE(svc.open_session("b", "s1", paper_example()).ok());
    // Out-of-range assumption variable fails at submit.
    EXPECT_EQ(
        svc.submit_assumptions("a", "s1", {{99, true}}).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(svc.close_session("a", "nope").code(),
              StatusCode::kInvalidArgument);
}

// ---- admission control ------------------------------------------------------

TEST(Service, OverCapacitySubmitsRejectedStructured) {
    g_blocker_entered.store(0);
    SolveService svc(blocking_service(/*workers=*/1, /*max_queue=*/2));

    // Fill the single worker slot...
    const Result<JobId> running = svc.submit(one_shot("a", opaque_problem()));
    ASSERT_TRUE(running.ok());
    wait_blocker_entered(1);
    // ...then the queue...
    const Result<JobId> q1 = svc.submit(one_shot("a", opaque_problem()));
    const Result<JobId> q2 = svc.submit(one_shot("b", opaque_problem()));
    ASSERT_TRUE(q1.ok());
    ASSERT_TRUE(q2.ok());
    // ...and the next submit bounces with a structured error.
    const Result<JobId> rejected = svc.submit(one_shot("c", opaque_problem()));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(rejected.status().message().find("queue full"),
              std::string::npos);

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.queued, 2u);
    EXPECT_EQ(stats.running, 1u);

    // Cancelling a queued job frees a slot for admission again.
    ASSERT_TRUE(svc.cancel(*q2).ok());
    const Result<JobId> retry = svc.submit(one_shot("c", opaque_problem()));
    EXPECT_TRUE(retry.ok());

    svc.shutdown();
    // Everything terminal after shutdown; nothing leaked.
    stats = svc.stats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(stats.completed + stats.cancelled + stats.expired + stats.failed,
              stats.accepted);
}

// ---- cancellation and deadlines --------------------------------------------

TEST(Service, CancelRunningJobViaToken) {
    g_blocker_entered.store(0);
    SolveService svc(blocking_service(1, 8));
    const Result<JobId> id = svc.submit(one_shot("a", opaque_problem()));
    ASSERT_TRUE(id.ok());
    wait_blocker_entered(1);
    EXPECT_EQ(*svc.job_state(*id), JobState::kRunning);

    ASSERT_TRUE(svc.cancel(*id).ok());
    const Result<JobOutcome> out = svc.wait(*id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->state, JobState::kCancelled);
    EXPECT_TRUE(out->report.interrupted);  // partial report, not thread death
    EXPECT_EQ(out->report.verdict, sat::Result::kUnknown);
    // Cancelling a terminal job is an idempotent no-op.
    EXPECT_TRUE(svc.cancel(*id).ok());

    // The worker survived: the service still accepts and runs jobs.
    const Result<JobId> after = svc.submit(one_shot("a", paper_example()));
    ASSERT_TRUE(after.ok());
    ASSERT_TRUE(svc.cancel(*after).ok());  // blocker config: just cancel it
    EXPECT_TRUE(svc.wait(*after).ok());
}

TEST(Service, CancelQueuedJobNeverRuns) {
    g_blocker_entered.store(0);
    SolveService svc(blocking_service(1, 8));
    const Result<JobId> running = svc.submit(one_shot("a", opaque_problem()));
    ASSERT_TRUE(running.ok());
    wait_blocker_entered(1);
    const Result<JobId> queued = svc.submit(one_shot("a", opaque_problem()));
    ASSERT_TRUE(queued.ok());
    EXPECT_EQ(*svc.job_state(*queued), JobState::kQueued);

    ASSERT_TRUE(svc.cancel(*queued).ok());
    const Result<JobOutcome> out = svc.wait(*queued);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->state, JobState::kCancelled);
    EXPECT_EQ(out->run_s, 0.0);  // never dispatched
    EXPECT_EQ(g_blocker_entered.load(), 1);
}

TEST(Service, DeadlineExpiryIsCooperative) {
    g_blocker_entered.store(0);
    SolveService svc(blocking_service(1, 8));
    const Timer t;
    const Result<JobId> id =
        svc.submit(one_shot("a", opaque_problem(), /*timeout_s=*/0.3));
    ASSERT_TRUE(id.ok());
    const Result<JobOutcome> out = svc.wait(*id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->state, JobState::kExpired);
    EXPECT_EQ(out->timeout_s, 0.3);
    EXPECT_GE(t.seconds(), 0.29);  // the deadline, not an early give-up

    // PAR-2: an expired job scores twice its deadline.
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.par2_jobs, 1u);
    EXPECT_DOUBLE_EQ(stats.par2_sum, 0.6);

    // The worker thread survived expiry: the next job parks in the
    // blocker again (same single worker).
    const Result<JobId> next = svc.submit(one_shot("a", opaque_problem()));
    ASSERT_TRUE(next.ok());
    wait_blocker_entered(2);
    EXPECT_TRUE(svc.cancel(*next).ok());
}

TEST(Service, TimeoutValidationAndCap) {
    ServiceConfig cfg;
    cfg.engine = small_config();
    cfg.n_workers = 1;
    cfg.max_timeout_s = 5.0;
    SolveService svc(cfg);

    EXPECT_EQ(svc.submit(one_shot("a", paper_example(), -1.0)).status().code(),
              StatusCode::kInvalidArgument);
    // A request above the cap is clamped, not rejected.
    const Result<JobId> id = svc.submit(one_shot("a", paper_example(), 100.0));
    ASSERT_TRUE(id.ok());
    const auto out = svc.wait(*id);
    ASSERT_TRUE(out.ok());
    EXPECT_DOUBLE_EQ(out->timeout_s, 5.0);
    // An unknown solver spec fails the submit, not the job.
    JobRequest bad = one_shot("a", paper_example());
    bad.solver = "no-such-backend";
    EXPECT_EQ(svc.submit(std::move(bad)).status().code(),
              StatusCode::kInvalidArgument);
}

// ---- lifecycle and retention ------------------------------------------------

TEST(Service, ShutdownCancelsQueuedAndRunning) {
    g_blocker_entered.store(0);
    SolveService svc(blocking_service(1, 8));
    const Result<JobId> running = svc.submit(one_shot("a", opaque_problem()));
    const Result<JobId> queued = svc.submit(one_shot("b", opaque_problem()));
    ASSERT_TRUE(running.ok() && queued.ok());
    wait_blocker_entered(1);

    svc.shutdown();
    EXPECT_EQ(*svc.job_state(*running), JobState::kCancelled);
    EXPECT_EQ(*svc.job_state(*queued), JobState::kCancelled);
    // Post-shutdown submits are rejected with a structured error.
    const Result<JobId> late = svc.submit(one_shot("a", opaque_problem()));
    EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
    // Idempotent (also runs again in the destructor).
    svc.shutdown();
}

TEST(Service, RetentionEvictsOldestFinishedJobs) {
    ServiceConfig cfg;
    cfg.engine = small_config();
    cfg.n_workers = 1;
    cfg.max_retained_jobs = 2;
    SolveService svc(cfg);

    std::vector<JobId> ids;
    for (int i = 0; i < 4; ++i) {
        const Result<JobId> id = svc.submit(one_shot("a", paper_example()));
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(svc.wait(*id).ok());
        ids.push_back(*id);
    }
    // The two oldest results were evicted; the two newest are readable.
    EXPECT_EQ(svc.job_state(ids[0]).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(svc.job_state(ids[1]).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(svc.job_state(ids[2]).ok());
    EXPECT_TRUE(svc.job_state(ids[3]).ok());
}

TEST(Service, WaitTimesOutWithoutConsumingTheJob) {
    g_blocker_entered.store(0);
    SolveService svc(blocking_service(1, 8));
    const Result<JobId> id = svc.submit(one_shot("a", opaque_problem()));
    ASSERT_TRUE(id.ok());
    wait_blocker_entered(1);

    const Result<JobOutcome> timed = svc.wait(*id, 0.05);
    ASSERT_FALSE(timed.ok());
    EXPECT_EQ(timed.status().code(), StatusCode::kTimeout);
    // The job is untouched and still cancellable + waitable.
    ASSERT_TRUE(svc.cancel(*id).ok());
    const Result<JobOutcome> out = svc.wait(*id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->state, JobState::kCancelled);
}

TEST(Service, RoundRobinIsFairAcrossClients) {
    g_blocker_entered.store(0);
    SolveService svc(blocking_service(1, 16));
    // Park the worker, then queue 3 jobs for a greedy client and 1 for a
    // light client, in that submit order.
    const Result<JobId> parked = svc.submit(one_shot("z", opaque_problem()));
    ASSERT_TRUE(parked.ok());
    wait_blocker_entered(1);
    std::vector<JobId> greedy;
    for (int i = 0; i < 3; ++i) {
        const auto id = svc.submit(one_shot("greedy", opaque_problem()));
        ASSERT_TRUE(id.ok());
        greedy.push_back(*id);
    }
    const Result<JobId> light = svc.submit(one_shot("light", opaque_problem()));
    ASSERT_TRUE(light.ok());

    // Free the slot: round-robin must hand it to one queued lane, and
    // the light client's single job must not sit behind all three greedy
    // jobs -- cancel jobs as they start and track dispatch order.
    std::vector<JobId> dispatch_order;
    ASSERT_TRUE(svc.cancel(*parked).ok());
    for (int round = 0; round < 4; ++round) {
        const int target = 2 + round;  // parked was blocker-solve #1
        wait_blocker_entered(target);
        // Exactly one of the queued jobs is now running.
        for (const JobId id : {greedy[0], greedy[1], greedy[2], *light}) {
            const auto st = svc.job_state(id);
            ASSERT_TRUE(st.ok());
            if (*st == JobState::kRunning) {
                dispatch_order.push_back(id);
                ASSERT_TRUE(svc.cancel(id).ok());
                ASSERT_TRUE(svc.wait(id).ok());
                break;
            }
        }
    }
    ASSERT_EQ(dispatch_order.size(), 4u);
    // The light client's job ran before the greedy client's 2nd and 3rd.
    const auto pos = [&dispatch_order](JobId id) {
        return std::find(dispatch_order.begin(), dispatch_order.end(), id) -
               dispatch_order.begin();
    };
    EXPECT_LT(pos(*light), pos(greedy[1]));
    EXPECT_LT(pos(*light), pos(greedy[2]));
}

// ---- metrics ----------------------------------------------------------------

TEST(Service, StatsSnapshotIsConsistent) {
    ServiceConfig cfg;
    cfg.engine = small_config();
    cfg.n_workers = 2;
    SolveService svc(cfg);

    const anf::MonomialStore::Stats before = anf::MonomialStore::global().stats();
    const Result<JobId> id = svc.submit(one_shot("a", paper_example()));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(svc.wait(*id).ok());

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(stats.clients, 1u);
    EXPECT_EQ(stats.par2_jobs, 1u);
    EXPECT_GT(stats.par2_sum, 0.0);  // decided: contributes its runtime
    EXPECT_LT(stats.par2(), 2 * cfg.default_timeout_s);
    EXPECT_GT(stats.uptime_s, 0.0);
    // The store occupancy is live, and service jobs run in Sessions,
    // which never release entries: never below a snapshot taken earlier.
    EXPECT_GE(stats.store.entries, before.entries);
    EXPECT_GT(stats.store.entries, 0u);
    EXPECT_GT(stats.store.arena_bytes, 0u);
    EXPECT_EQ(stats.backend_verdicts.at("native").sat, 1u);
}

}  // namespace
}  // namespace bosphorus
