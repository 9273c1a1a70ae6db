#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sat/solve_cnf.h"
#include "sat/xor_engine.h"

namespace bosphorus::sat {

Solver::Solver(Config cfg) : cfg_(cfg) {
    if (cfg_.enable_xor) xor_engine_ = std::make_unique<XorEngine>(*this);
}

Solver::~Solver() = default;

Var Solver::new_var() {
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(LBool::kUndef);
    polarity_.push_back(true);  // default phase: assign false first
    var_level_.push_back(0);
    var_reason_.push_back(kNoReason);
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    insert_var_order(v);
    if (xor_engine_) xor_engine_->ensure_num_vars(assigns_.size());
    return v;
}

bool Solver::add_clause(std::vector<Lit> lits) {
    if (!ok_) return false;
    assert(decision_level() == 0);

    // Canonicalise: sort, dedupe, drop false literals, detect tautology and
    // satisfied clauses.
    std::sort(lits.begin(), lits.end());
    std::vector<Lit> out;
    Lit prev = lit_undef();
    for (Lit l : lits) {
        assert(l.var() < num_vars());
        if (value(l) == LBool::kTrue || l == ~prev) return true;  // satisfied/tautology
        if (value(l) == LBool::kFalse || l == prev) continue;     // falsified/duplicate
        out.push_back(l);
        prev = l;
    }

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], kNoReason);
        return ok_ = (propagate() == kNoReason);
    }
    const CRef cr = alloc_clause(std::move(out), /*learnt=*/false);
    problem_clauses_.push_back(cr);
    attach_clause(cr);
    return true;
}

bool Solver::add_xor(const XorConstraint& x) {
    if (!ok_) return false;
    // Normalise: XOR semantics are insensitive to order; duplicate vars
    // cancel in pairs.
    std::vector<Var> vars = x.vars;
    std::sort(vars.begin(), vars.end());
    std::vector<Var> kept;
    for (size_t i = 0; i < vars.size();) {
        size_t j = i;
        while (j < vars.size() && vars[j] == vars[i]) ++j;
        if ((j - i) % 2 == 1) kept.push_back(vars[i]);
        i = j;
    }
    bool rhs = x.rhs;

    if (kept.empty()) {
        if (rhs) ok_ = false;
        return ok_;
    }
    if (kept.size() == 1) {
        enqueue_or_check(kept[0], rhs);
        return ok_;
    }

    if (xor_engine_) {
        XorConstraint norm{std::move(kept), rhs};
        xor_engine_->add_xor(std::move(norm));
        return true;
    }

    // No native XOR support: expand into CNF through the shared
    // append_xor_as_clauses helper (sat/solve_cnf.h), which cuts long
    // constraints with fresh auxiliary variables to bound the 2^(l-1)
    // clause blow-up.
    Cnf expansion;
    expansion.num_vars = num_vars();
    append_xor_as_clauses(expansion, XorConstraint{std::move(kept), rhs});
    while (num_vars() < expansion.num_vars) new_var();
    for (auto& clause : expansion.clauses) {
        if (!add_clause(std::move(clause))) return false;
    }
    return ok_;
}

void Solver::enqueue_or_check(Var v, bool val) {
    const Lit l = mk_lit(v, !val);
    if (value(l) == LBool::kFalse) {
        ok_ = false;
    } else if (value(l) == LBool::kUndef) {
        enqueue(l, kNoReason);
        if (propagate() != kNoReason) ok_ = false;
    }
}

bool Solver::load(const Cnf& cnf) {
    while (num_vars() < cnf.num_vars) new_var();
    for (const auto& cl : cnf.clauses) {
        if (!add_clause(cl)) return false;
    }
    for (const auto& x : cnf.xors) {
        if (!add_xor(x)) return false;
    }
    return ok_;
}

// ---------------------------------------------------------------- clauses

Solver::CRef Solver::alloc_clause(std::vector<Lit> lits, bool learnt) {
    const CRef cr = static_cast<CRef>(clauses_.size());
    Clause c;
    c.lits = std::move(lits);
    c.learnt = learnt;
    clauses_.push_back(std::move(c));
    return cr;
}

void Solver::attach_clause(CRef cr) {
    const auto& lits = clauses_[cr].lits;
    assert(lits.size() >= 2);
    watches_[(~lits[0]).raw()].push_back({cr, lits[1]});
    watches_[(~lits[1]).raw()].push_back({cr, lits[0]});
}

void Solver::detach_clause(CRef cr) {
    const auto& lits = clauses_[cr].lits;
    for (int i = 0; i < 2; ++i) {
        auto& ws = watches_[(~lits[i]).raw()];
        for (size_t j = 0; j < ws.size(); ++j) {
            if (ws[j].cref == cr) {
                ws[j] = ws.back();
                ws.pop_back();
                break;
            }
        }
    }
}

void Solver::remove_clause(CRef cr) {
    detach_clause(cr);
    clauses_[cr].deleted = true;
    clauses_[cr].lits.clear();
    clauses_[cr].lits.shrink_to_fit();
    ++stats_.deleted_clauses;
}

// ------------------------------------------------------------ propagation

void Solver::enqueue(Lit l, CRef reason) {
    assert(value(l) == LBool::kUndef);
    assigns_[l.var()] = lbool_from(!l.sign());
    var_level_[l.var()] = decision_level();
    var_reason_[l.var()] = reason;
    trail_.push_back(l);
}

Solver::CRef Solver::propagate() {
    CRef confl = kNoReason;
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++stats_.propagations;
        auto& ws = watches_[p.raw()];
        size_t i = 0, j = 0;
        while (i < ws.size()) {
            const Watcher w = ws[i];
            if (value(w.blocker) == LBool::kTrue) {
                ws[j++] = ws[i++];
                continue;
            }
            Clause& c = clauses_[w.cref];
            auto& lits = c.lits;
            // Ensure the false literal (~p) is at position 1.
            const Lit false_lit = ~p;
            if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
            assert(lits[1] == false_lit);
            ++i;

            const Lit first = lits[0];
            if (first != w.blocker && value(first) == LBool::kTrue) {
                ws[j++] = {w.cref, first};
                continue;
            }
            // Look for a new literal to watch.
            bool found = false;
            for (size_t k = 2; k < lits.size(); ++k) {
                if (value(lits[k]) != LBool::kFalse) {
                    std::swap(lits[1], lits[k]);
                    watches_[(~lits[1]).raw()].push_back({w.cref, first});
                    found = true;
                    break;
                }
            }
            if (found) continue;

            // Clause is unit or conflicting.
            ws[j++] = {w.cref, first};
            if (value(first) == LBool::kFalse) {
                confl = w.cref;
                qhead_ = trail_.size();
                while (i < ws.size()) ws[j++] = ws[i++];
            } else {
                enqueue(first, w.cref);
            }
        }
        ws.resize(j);
        if (confl != kNoReason) break;
    }
    return confl;
}

// ------------------------------------------------------- conflict analysis

void Solver::analyze(CRef confl, std::vector<Lit>& out_learnt,
                     int& out_btlevel, uint32_t& out_lbd) {
    out_learnt.clear();
    out_learnt.push_back(lit_undef());  // slot for the asserting literal

    int path_count = 0;
    Lit p = lit_undef();
    size_t index = trail_.size();

    do {
        assert(confl != kNoReason);
        Clause& c = clauses_[confl];
        if (c.learnt) {
            cla_bump(c);
            // In-processing: refresh the LBD of clauses participating in
            // conflicts (all their literals are assigned here, so the
            // levels are valid) and remember they were useful. XOR
            // conflict/reason clauses stay kUntracked and are skipped.
            if (c.tier != inprocess::kUntracked) {
                c.used = 1;
                const uint32_t nl = clause_lbd(c);
                if (nl < c.lbd) {
                    c.lbd = nl;
                    c.tier = static_cast<uint8_t>(db_mgr_.on_lbd_improved(
                        static_cast<inprocess::Tier>(c.tier), nl));
                }
            }
        }

        const size_t start = (p == lit_undef()) ? 0 : 1;
        for (size_t k = start; k < c.lits.size(); ++k) {
            const Lit q = c.lits[k];
            if (seen_[q.var()] || level(q.var()) == 0) continue;
            seen_[q.var()] = 1;
            var_bump(q.var());
            if (level(q.var()) >= decision_level()) {
                ++path_count;
            } else {
                out_learnt.push_back(q);
            }
        }
        // Walk back to the next marked literal on the trail.
        while (!seen_[trail_[index - 1].var()]) --index;
        p = trail_[--index];
        confl = var_reason_[p.var()];
        seen_[p.var()] = 0;
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Conflict-clause minimisation: drop literals implied by the rest.
    analyze_clear_.assign(out_learnt.begin() + 1, out_learnt.end());
    for (const Lit l : analyze_clear_) seen_[l.var()] = 1;
    uint32_t abstract_levels = 0;
    for (size_t i = 1; i < out_learnt.size(); ++i)
        abstract_levels |= 1u << (level(out_learnt[i].var()) & 31);
    size_t keep = 1;
    for (size_t i = 1; i < out_learnt.size(); ++i) {
        if (var_reason_[out_learnt[i].var()] == kNoReason ||
            !lit_redundant(out_learnt[i], abstract_levels)) {
            out_learnt[keep++] = out_learnt[i];
        }
    }
    out_learnt.resize(keep);
    for (const Lit l : analyze_clear_) seen_[l.var()] = 0;
    seen_[out_learnt[0].var()] = 0;

    // Compute backtrack level and LBD.
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        size_t max_i = 1;
        for (size_t i = 2; i < out_learnt.size(); ++i) {
            if (level(out_learnt[i].var()) > level(out_learnt[max_i].var()))
                max_i = i;
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = level(out_learnt[1].var());
    }
    // LBD: number of distinct decision levels among the literals.
    uint32_t lbd = 0;
    for (const Lit l : out_learnt) {
        const int lv = level(l.var());
        bool fresh = true;
        for (const Lit m : out_learnt) {
            if (m == l) break;
            if (level(m.var()) == lv) { fresh = false; break; }
        }
        if (fresh) ++lbd;
    }
    out_lbd = lbd;
}

bool Solver::lit_redundant(Lit l, uint32_t abstract_levels) {
    analyze_stack_.clear();
    analyze_stack_.push_back(l);
    const size_t top = analyze_clear_.size();
    while (!analyze_stack_.empty()) {
        const Lit q = analyze_stack_.back();
        analyze_stack_.pop_back();
        assert(var_reason_[q.var()] != kNoReason);
        const Clause& c = clauses_[var_reason_[q.var()]];
        for (size_t i = 1; i < c.lits.size(); ++i) {
            const Lit p = c.lits[i];
            if (seen_[p.var()] || level(p.var()) == 0) continue;
            if (var_reason_[p.var()] == kNoReason ||
                !((1u << (level(p.var()) & 31)) & abstract_levels)) {
                // Cannot be shown redundant: undo the marks made here.
                for (size_t j = top; j < analyze_clear_.size(); ++j)
                    seen_[analyze_clear_[j].var()] = 0;
                analyze_clear_.resize(top);
                return false;
            }
            seen_[p.var()] = 1;
            analyze_stack_.push_back(p);
            analyze_clear_.push_back(p);
        }
    }
    return true;
}

void Solver::cancel_until(int target_level) {
    if (decision_level() <= target_level) return;
    const size_t new_size = trail_lim_[target_level];
    for (size_t i = trail_.size(); i-- > new_size;) {
        const Var v = trail_[i].var();
        assigns_[v] = LBool::kUndef;
        polarity_[v] = trail_[i].sign();
        var_reason_[v] = kNoReason;
        if (heap_pos_[v] < 0) insert_var_order(v);
    }
    trail_.resize(new_size);
    trail_lim_.resize(target_level);
    qhead_ = std::min(qhead_, trail_.size());
    if (xor_engine_)
        xor_engine_->set_qhead(std::min(xor_engine_->qhead(), trail_.size()));
}

// ----------------------------------------------------------------- VSIDS

void Solver::var_bump(Var v) {
    activity_[v] += var_inc_;
    if (activity_[v] > 1e100) {
        for (auto& a : activity_) a *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_pos_[v] >= 0) heap_up(static_cast<size_t>(heap_pos_[v]));
}

void Solver::var_decay_all() { var_inc_ /= knobs_.var_decay; }

void Solver::cla_bump(Clause& c) {
    c.activity += static_cast<float>(cla_inc_);
    if (c.activity > 1e20f) {
        for (CRef cr : learnts_) clauses_[cr].activity *= 1e-20f;
        cla_inc_ *= 1e-20;
    }
}

bool Solver::heap_lt(Var a, Var b) const {
    if (activity_[a] != activity_[b]) return activity_[a] > activity_[b];
    return a < b;  // deterministic tie-break
}

void Solver::insert_var_order(Var v) {
    if (heap_pos_[v] >= 0) return;
    heap_pos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heap_up(heap_.size() - 1);
}

void Solver::heap_up(size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
        const size_t parent = (i - 1) / 2;
        if (!heap_lt(v, heap_[parent])) break;
        heap_[i] = heap_[parent];
        heap_pos_[heap_[i]] = static_cast<int>(i);
        i = parent;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int>(i);
}

void Solver::heap_down(size_t i) {
    const Var v = heap_[i];
    for (;;) {
        const size_t left = 2 * i + 1;
        if (left >= heap_.size()) break;
        size_t child = left;
        if (left + 1 < heap_.size() && heap_lt(heap_[left + 1], heap_[left]))
            child = left + 1;
        if (!heap_lt(heap_[child], v)) break;
        heap_[i] = heap_[child];
        heap_pos_[heap_[i]] = static_cast<int>(i);
        i = child;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int>(i);
}

Lit Solver::pick_branch_lit() {
    while (!heap_.empty()) {
        const Var v = heap_[0];
        heap_[0] = heap_.back();
        heap_pos_[heap_[0]] = 0;
        heap_.pop_back();
        heap_pos_[v] = -1;
        if (!heap_.empty()) heap_down(0);
        if (assigns_[v] == LBool::kUndef) return mk_lit(v, polarity_[v]);
    }
    return lit_undef();
}

// --------------------------------------------------------- in-processing

void Solver::apply_profile(inprocess::ProfileId id) {
    knobs_ = inprocess::profile(id);
    db_mgr_.apply_profile(knobs_);
    // The first application of a solver's life is not a reconfiguration.
    if (active_profile_ != inprocess::ProfileId::kAuto &&
        id != active_profile_) {
        ++stats_.reconf_decisions;
        inprocess::counters().reconf_decisions.fetch_add(
            1, std::memory_order_relaxed);
    }
    active_profile_ = id;
}

void Solver::run_vivify_pass() {
    const auto ps = vivifier_.run(*this, knobs_.vivify_propagation_budget,
                                   cfg_.inprocess.vivify_max_clause_size,
                                   cfg_.inprocess.vivify_irredundant);
    stats_.vivified_literals += ps.literals_removed;
    stats_.vivified_clauses += ps.clauses_shrunk;
    ++stats_.vivify_passes;
    last_vivify_conflicts_ = stats_.conflicts;
}

bool Solver::vivify_due() const {
    return stats_.conflicts - last_vivify_conflicts_ >=
           cfg_.inprocess.vivify_min_conflicts;
}

uint32_t Solver::clause_lbd(const Clause& c) {
    // Only valid for fully assigned clauses (conflict/reason clauses in
    // analyze): unassigned variables carry stale levels.
    ++lbd_stamp_;
    uint32_t lbd = 0;
    for (const Lit l : c.lits) {
        const int lv = level(l.var());
        if (lv == 0) continue;  // level-0 literals are effectively gone
        if (static_cast<size_t>(lv) >= level_stamp_.size())
            level_stamp_.resize(static_cast<size_t>(lv) + 1, 0);
        if (level_stamp_[lv] != lbd_stamp_) {
            level_stamp_[lv] = lbd_stamp_;
            ++lbd;
        }
    }
    return lbd;
}

bool Solver::check_db_invariants() const {
    // 1. Clause lists hold only live clauses with consistent flags; the
    //    tier counts match a full recount.
    for (const CRef cr : problem_clauses_) {
        const Clause& c = clauses_[cr];
        if (c.deleted || c.learnt) return false;
    }
    inprocess::ClauseDbManager::TierCounts recount;
    for (const CRef cr : learnts_) {
        const Clause& c = clauses_[cr];
        if (c.deleted || !c.learnt) return false;
        switch (c.tier) {
            case inprocess::kCore: ++recount.core; break;
            case inprocess::kMid: ++recount.mid; break;
            case inprocess::kLocal: ++recount.local; break;
            default: return false;  // kUntracked must not be listed
        }
    }
    const auto& tc = db_mgr_.tier_counts();
    if (recount.core != tc.core || recount.mid != tc.mid ||
        recount.local != tc.local)
        return false;
    // 2. Every watcher points at a live clause and watches one of its
    //    first two literals; every listed clause is watched exactly twice.
    std::vector<uint8_t> watch_count(clauses_.size(), 0);
    for (size_t raw = 0; raw < watches_.size(); ++raw) {
        const Lit watched = ~Lit::from_raw(static_cast<uint32_t>(raw));
        for (const Watcher& w : watches_[raw]) {
            const Clause& c = clauses_[w.cref];
            if (c.deleted || c.lits.size() < 2) return false;
            if (c.lits[0] != watched && c.lits[1] != watched) return false;
            if (watch_count[w.cref] >= 2) return false;
            ++watch_count[w.cref];
        }
    }
    for (const CRef cr : problem_clauses_) {
        if (clauses_[cr].lits.size() >= 2 && watch_count[cr] != 2)
            return false;
    }
    for (const CRef cr : learnts_) {
        if (watch_count[cr] != 2) return false;
    }
    // 3. Reasons of variables assigned above level 0 are live clauses
    //    whose first literal is the implied one.
    for (const Lit l : trail_) {
        if (var_level_[l.var()] == 0) continue;
        const CRef r = var_reason_[l.var()];
        if (r == kNoReason) continue;
        const Clause& c = clauses_[r];
        if (c.deleted || c.lits.empty() || c.lits[0] != l) return false;
    }
    return true;
}

void Solver::debug_force_reduce() { db_mgr_.reduce(*this); }

inprocess::Vivifier::PassStats Solver::debug_force_vivify(
    uint64_t propagation_budget) {
    if (!ok_) return {};
    cancel_until(0);
    const auto ps = vivifier_.run(*this, propagation_budget,
                                   cfg_.inprocess.vivify_max_clause_size,
                                   cfg_.inprocess.vivify_irredundant);
    stats_.vivified_literals += ps.literals_removed;
    stats_.vivified_clauses += ps.clauses_shrunk;
    ++stats_.vivify_passes;
    return ps;
}

double Solver::luby(double y, int i) const {
    // Finite subsequence length and position within it.
    int size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) / 2;
        --seq;
        i = i % size;
    }
    return std::pow(y, seq);
}

void Solver::record_learnt_fact(const std::vector<Lit>& clause) {
    if (clause.size() == 2) {
        const Lit lo = std::min(clause[0], clause[1]);
        const Lit hi = std::max(clause[0], clause[1]);
        const uint64_t key =
            (static_cast<uint64_t>(lo.raw()) << 32) | hi.raw();
        if (binaries_seen_.insert(key).second)
            learnt_binaries_.push_back({clause[0], clause[1]});
    }
    // Unit learnt clauses reach the trail at level 0 and are exported via
    // the units_reported_ cursor in solve().
}

// ------------------------------------------------------------------ solve

Result Solver::solve(int64_t conflict_budget, double timeout_s) {
    return solve_assuming({}, conflict_budget, timeout_s);
}

Result Solver::solve_assuming(const std::vector<Lit>& assumptions,
                              int64_t conflict_budget, double timeout_s) {
    cancel_until(0);  // make repeated solve calls on one instance safe
    failed_assumptions_.clear();
    if (!ok_) return Result::kUnsat;
    Timer timer;

    // Sticky interrupt + IPASIR-style terminate hook. The atomic flag is
    // checked at every conflict and decision; the (potentially costlier)
    // callback only every 128th poll.
    uint32_t poll_counter = 0;
    auto stop_requested = [&]() -> bool {
        if (interrupt_.load(std::memory_order_acquire)) return true;
        if (terminate_cb_ && (++poll_counter & 127u) == 0 && terminate_cb_())
            return true;
        return false;
    };
    if (stop_requested()) return Result::kUnknown;

    if (xor_engine_ && !xor_engine_->gauss_jordan_level0()) {
        ok_ = false;
        return Result::kUnsat;
    }

    ++solve_calls_;
    // Per-call profile selection: static features plus the LBD window
    // observed in the previous call.
    feat_ = inprocess::InstanceFeatures::extract(*this);
    feat_.avg_first_window_lbd = prev_window_lbd_;
    apply_profile(inprocess::select_profile(feat_));
    window_lbd_sum_ = 0;
    window_lbd_count_ = 0;
    window_reconf_done_ = false;
    // Entry vivification on warm re-solves only: a cold one-shot call
    // pays nothing up front, and short warm solves that learned little
    // since the last pass skip it too (vivify_due).
    if (cfg_.inprocess.vivify && solve_calls_ > 1 && vivify_due()) {
        run_vivify_pass();
        if (!ok_) {
            while (units_reported_ < trail_.size())
                learnt_units_.push_back(trail_[units_reported_++]);
            return Result::kUnsat;
        }
    }

    int64_t conflicts_this_call = 0;
    int curr_restarts = 0;
    int64_t restart_limit = static_cast<int64_t>(
        luby(2.0, curr_restarts) * knobs_.restart_base);
    int64_t conflicts_since_restart = 0;

    std::vector<Lit> learnt_clause;
    Result result = Result::kUnknown;

    for (;;) {
        // Propagation: clause propagation and XOR propagation to fixpoint.
        CRef confl = propagate();
        if (confl == kNoReason && xor_engine_) {
            std::vector<Lit> xconfl;
            if (!xor_engine_->propagate(xconfl)) {
                // Materialise the conflicting XOR row as a clause.
                confl = alloc_clause(std::move(xconfl), /*learnt=*/true);
            } else if (qhead_ < trail_.size()) {
                continue;  // XOR enqueued literals: run clause propagation
            }
        }

        if (confl != kNoReason) {
            ++stats_.conflicts;
            ++conflicts_this_call;
            ++conflicts_since_restart;
            if (decision_level() == 0) {
                ok_ = false;
                result = Result::kUnsat;
                break;
            }
            int bt_level;
            uint32_t lbd;
            analyze(confl, learnt_clause, bt_level, lbd);
            cancel_until(bt_level);
            record_learnt_fact(learnt_clause);
            if (learnt_clause.size() == 1) {
                enqueue(learnt_clause[0], kNoReason);
            } else {
                const CRef cr = alloc_clause(learnt_clause, /*learnt=*/true);
                clauses_[cr].lbd = lbd;
                clauses_[cr].tier = static_cast<uint8_t>(db_mgr_.classify(lbd));
                clauses_[cr].used = 1;
                db_mgr_.on_learnt(lbd);
                learnts_.push_back(cr);
                attach_clause(cr);
                cla_bump(clauses_[cr]);
                enqueue(learnt_clause[0], cr);
            }
            ++stats_.learnt_clauses;
            if (!window_reconf_done_) {
                // Opening-window LBD observation; once full, give the
                // selection rule one mid-call chance to switch profiles.
                window_lbd_sum_ += lbd;
                if (++window_lbd_count_ >=
                    cfg_.inprocess.window_lbd_conflicts) {
                    window_reconf_done_ = true;
                    prev_window_lbd_ =
                        static_cast<double>(window_lbd_sum_) /
                        static_cast<double>(window_lbd_count_);
                    feat_.avg_first_window_lbd = prev_window_lbd_;
                    const inprocess::ProfileId want =
                        inprocess::select_profile(feat_);
                    if (want != active_profile_) apply_profile(want);
                }
            }
            var_decay_all();
            cla_inc_ /= knobs_.clause_decay;

            if (conflict_budget >= 0 && conflicts_this_call >= conflict_budget) {
                result = Result::kUnknown;
                break;
            }
            if (timeout_s > 0 && (stats_.conflicts & 1023) == 0 &&
                timer.seconds() > timeout_s) {
                result = Result::kUnknown;
                break;
            }
            if (stop_requested()) {
                result = Result::kUnknown;
                break;
            }
        } else {
            if (conflicts_since_restart >= restart_limit) {
                ++stats_.restarts;
                ++curr_restarts;
                conflicts_since_restart = 0;
                restart_limit = static_cast<int64_t>(
                    luby(2.0, curr_restarts) * knobs_.restart_base);
                cancel_until(0);
                if (cfg_.inprocess.vivify &&
                    curr_restarts %
                            static_cast<int>(knobs_.vivify_restart_interval) ==
                        0 &&
                    vivify_due()) {
                    run_vivify_pass();
                    if (!ok_) {
                        result = Result::kUnsat;
                        break;
                    }
                }
                continue;
            }
            if (db_mgr_.should_reduce(problem_clauses_.size()))
                db_mgr_.reduce(*this);
            // Re-enqueue any assumption not yet decided (restarts and
            // backjumps may have unwound them) before real branching.
            Lit next = lit_undef();
            bool failed_assumption = false;
            while (decision_level() <
                   static_cast<int>(assumptions.size())) {
                const Lit p = assumptions[decision_level()];
                assert(p.var() < num_vars());
                if (value(p) == LBool::kTrue) {
                    // Already implied: open a dummy level so the remaining
                    // assumptions keep their positions.
                    trail_lim_.push_back(static_cast<int>(trail_.size()));
                } else if (value(p) == LBool::kFalse) {
                    // The clause database refutes this assumption: UNSAT
                    // under assumptions, but the formula itself stays ok.
                    failed_assumption = true;
                    break;
                } else {
                    next = p;
                    break;
                }
            }
            if (failed_assumption) {
                failed_assumptions_.push_back(
                    assumptions[decision_level()]);
                result = Result::kUnsat;
                break;
            }
            if (stop_requested()) {
                result = Result::kUnknown;
                break;
            }
            if (next == lit_undef()) next = pick_branch_lit();
            if (next == lit_undef()) {
                // All variables assigned: a model.
                model_.assign(assigns_.begin(), assigns_.end());
                result = Result::kSat;
                break;
            }
            ++stats_.decisions;
            trail_lim_.push_back(static_cast<int>(trail_.size()));
            enqueue(next, kNoReason);
        }
    }

    cancel_until(0);
    // Export new level-0 implied literals as learnt unit facts.
    while (units_reported_ < trail_.size()) {
        learnt_units_.push_back(trail_[units_reported_++]);
    }
    return result;
}

}  // namespace bosphorus::sat
