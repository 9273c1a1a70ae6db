// Tests for the concurrent batch-solving runtime: BatchEngine determinism
// against sequential runs, prompt interrupt/cancellation propagation into
// technique iterations, the portfolio racer, and the M4R-by-default
// elimination flag. The 20-instance suites double as the ThreadSanitizer
// CI workload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "core/xl.h"
#include "runtime/cancellation.h"
#include "util/rng.h"
#include "util/timer.h"

namespace bosphorus {
namespace {

/// The paper's section II-E worked example; unique solution 1,1,1,1,0.
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

/// Random quadratic system with a planted solution (always SAT) -- the
/// same family bench_batch_throughput races, via the shared generator.
Problem planted_instance(size_t num_vars, size_t num_eqs, Rng& rng) {
    cnfgen::PlantedAnf inst =
        cnfgen::planted_quadratic_anf(num_vars, num_eqs, 3, 1, rng);
    return Problem::from_anf(std::move(inst.polys), inst.num_vars);
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
    return cfg;
}

void expect_reports_identical(const Report& a, const Report& b, size_t idx) {
    EXPECT_EQ(a.verdict, b.verdict) << "instance " << idx;
    EXPECT_EQ(a.solution, b.solution) << "instance " << idx;
    EXPECT_EQ(a.processed_anf, b.processed_anf) << "instance " << idx;
    EXPECT_EQ(a.iterations, b.iterations) << "instance " << idx;
    EXPECT_EQ(a.total_facts(), b.total_facts()) << "instance " << idx;
    EXPECT_EQ(a.vars_fixed, b.vars_fixed) << "instance " << idx;
    EXPECT_EQ(a.vars_replaced, b.vars_replaced) << "instance " << idx;
    ASSERT_EQ(a.techniques.size(), b.techniques.size());
    for (size_t t = 0; t < a.techniques.size(); ++t) {
        EXPECT_EQ(a.techniques[t].name, b.techniques[t].name);
        EXPECT_EQ(a.techniques[t].steps, b.techniques[t].steps);
        EXPECT_EQ(a.techniques[t].facts, b.techniques[t].facts);
    }
}

/// A Technique whose step never ends on its own: it spins until the
/// engine's stop signal reaches it through the sink. Proxy for "one very
/// long XL iteration".
class SpinUntilCancelled final : public Technique {
public:
    std::string name() const override { return "spin"; }
    StepReport step(core::AnfSystem&, FactSink& sink) override {
        while (!sink.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return {};
    }
};

// ---- BatchEngine -----------------------------------------------------------

TEST(BatchEngine, TwentyInstanceBatchMatchesSequentialBitForBit) {
    Rng rng(42);
    std::vector<Problem> problems;
    for (int i = 0; i < 20; ++i)
        problems.push_back(planted_instance(14, 20, rng));

    const EngineConfig cfg = small_config();
    std::vector<Report> sequential;
    for (const auto& p : problems) {
        Engine engine(cfg);
        Result<Report> r = engine.run(p);
        ASSERT_TRUE(r.ok());
        sequential.push_back(std::move(*r));
    }

    // Request 8 workers: more threads than cores on most CI boxes,
    // deliberately -- threads_for clamps the request to the hardware, and
    // neither the clamp nor the resulting worker count may change a single
    // bit of the results.
    BatchEngine batch(cfg);
    const auto parallel = batch.solve_all(problems, 8);
    ASSERT_EQ(parallel.size(), problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
        ASSERT_TRUE(parallel[i].ok()) << parallel[i].status().to_string();
        expect_reports_identical(sequential[i], *parallel[i], i);
    }
}

TEST(BatchEngine, CallbackFiresOncePerInstanceSerialised) {
    Rng rng(7);
    std::vector<Problem> problems;
    for (int i = 0; i < 6; ++i) problems.push_back(planted_instance(10, 14, rng));

    std::vector<int> seen(problems.size(), 0);
    int in_flight = 0;  // serialisation means this never exceeds 1
    bool overlapped = false;
    BatchEngine batch(small_config());
    batch.solve_all(problems, 4,
                    [&](size_t idx, const Result<Report>& r) {
                        if (++in_flight > 1) overlapped = true;
                        EXPECT_TRUE(r.ok());
                        ASSERT_LT(idx, seen.size());
                        ++seen[idx];
                        --in_flight;
                    });
    EXPECT_FALSE(overlapped);
    for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << i;
}

TEST(BatchEngine, EmptyBatchAndPreCancelledBatch) {
    BatchEngine batch(small_config());
    EXPECT_TRUE(batch.solve_all({}, 2).empty());

    runtime::CancellationSource source;
    source.request_cancel();
    batch.set_cancellation_token(source.token());
    std::vector<Problem> problems;
    problems.push_back(paper_example());
    const auto results = batch.solve_all(problems, 2);
    ASSERT_EQ(results.size(), 1u);
    // Cancelled before start: the slot reports kInterrupted, not a Report.
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].status().code(), StatusCode::kInterrupted);
}

// ---- prompt cancellation ---------------------------------------------------

TEST(Cancellation, TokenReachesInsideATechniqueStep) {
    // The spin technique only ever exits if the cancellation token is
    // polled *inside* the step -- step-boundary checks would hang forever.
    Engine engine(EngineConfig{});
    engine.clear_techniques();
    engine.add_technique(std::make_unique<SpinUntilCancelled>());

    runtime::CancellationSource source;
    engine.set_cancellation_token(source.token());

    Timer timer;
    std::thread canceller([&source] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        source.request_cancel();
    });
    Result<Report> r = engine.run(paper_example());
    canceller.join();

    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->interrupted);
    EXPECT_EQ(r->verdict, sat::Result::kUnknown);
    EXPECT_LT(timer.seconds(), 5.0);  // promptly, not after max_iterations
}

TEST(Cancellation, InterruptCallbackReachesInsideATechniqueStep) {
    // Same promptness contract for the legacy interrupt callback: it is
    // folded into the token FactSink hands to the core loops.
    Engine engine(EngineConfig{});
    engine.clear_techniques();
    engine.add_technique(std::make_unique<SpinUntilCancelled>());

    std::atomic<bool> stop{false};
    engine.set_interrupt_callback([&stop] { return stop.load(); });

    Timer timer;
    std::thread interrupter([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        stop.store(true);
    });
    Result<Report> r = engine.run(paper_example());
    interrupter.join();

    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->interrupted);
    EXPECT_LT(timer.seconds(), 5.0);
}

TEST(Cancellation, PreCancelledTokenSkipsCoreXl) {
    // Core-loop contract: a cancelled token makes run_xl bail at its first
    // boundary and return no facts.
    Rng rng(3);
    Problem p = planted_instance(16, 24, rng);
    runtime::CancellationSource source;
    source.request_cancel();
    Rng xl_rng(1);
    const auto facts = core::run_xl(p.polynomials(), core::XlConfig{}, xl_rng,
                                    nullptr, source.token());
    EXPECT_TRUE(facts.empty());
}

// ---- portfolio -------------------------------------------------------------

TEST(Portfolio, DecidesPaperExampleAndReportsLosers) {
    const std::vector<PortfolioEntry> entries =
        default_portfolio(small_config());
    ASSERT_EQ(entries.size(), 4u);

    const Result<PortfolioReport> run =
        solve_portfolio(paper_example(), entries, 2);
    ASSERT_TRUE(run.ok()) << run.status().to_string();

    EXPECT_TRUE(run->decided());
    EXPECT_EQ(run->report.verdict, sat::Result::kSat);
    const std::vector<bool> expected{true, true, true, true, false};
    EXPECT_EQ(run->report.solution, expected);

    ASSERT_EQ(run->outcomes.size(), entries.size());
    EXPECT_LT(run->winner, entries.size());
    EXPECT_EQ(run->winner_name, entries[run->winner].name);
    // The winner's outcome row must agree with the winning report.
    EXPECT_EQ(run->outcomes[run->winner].verdict, run->report.verdict);
}

TEST(Portfolio, EmptyEntryListIsInvalidArgument) {
    const Result<PortfolioReport> run =
        solve_portfolio(paper_example(), {}, 2);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(Portfolio, ExternalCancellationAbortsTheRace) {
    runtime::CancellationSource source;
    source.request_cancel();
    // Every entry sees the external token immediately: nobody decides, and
    // the racer falls back to the most productive (here: any) entry.
    const Result<PortfolioReport> run = solve_portfolio(
        paper_example(), default_portfolio(small_config()), 2,
        source.token());
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->decided());
    for (const auto& o : run->outcomes) {
        EXPECT_EQ(o.verdict, sat::Result::kUnknown) << o.name;
        EXPECT_TRUE(o.interrupted) << o.name;
    }
}

// ---- M4R default elimination path ------------------------------------------

TEST(M4rDefault, XlFactsIdenticalWithAndWithoutM4r) {
    Rng rng(11);
    const Problem p = planted_instance(18, 30, rng);

    core::XlConfig with = {};
    with.m_budget = 16;
    ASSERT_TRUE(with.use_m4r);  // M4R is the default elimination path
    core::XlConfig without = with;
    without.use_m4r = false;

    Rng r1(5), r2(5);  // identical subsampling on both paths
    const auto facts_m4r = core::run_xl(p.polynomials(), with, r1);
    const auto facts_plain = core::run_xl(p.polynomials(), without, r2);
    EXPECT_EQ(facts_m4r, facts_plain);
}

TEST(M4rDefault, FullEngineRunIdenticalWithAndWithoutM4r) {
    Rng rng(13);
    const Problem p = planted_instance(14, 20, rng);

    EngineConfig with = small_config();
    EngineConfig without = small_config();
    without.xl.use_m4r = false;
    without.elimlin.use_m4r = false;
    without.groebner.use_m4r = false;

    Engine e1(with), e2(without);
    Result<Report> r1 = e1.run(p), r2 = e2.run(p);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    expect_reports_identical(*r1, *r2, 0);
}

}  // namespace
}  // namespace bosphorus
