// MonomialStore unit tests: intern idempotence, mul memoisation, deg-lex
// rank monotonicity, independence of the semantics from interning order
// (id values may differ between stores; compare/rank/hash must not), index
// growth against a reference map, the fixed-size product memo, the
// per-monomial footprint, concurrent interning and the scratch Scope
// (truncation, stale products and ranks after a release, taint by other
// threads, nesting).
#include "anf/monomial_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "anf/monomial.h"
#include "util/rng.h"

namespace bosphorus::anf {
namespace {

std::vector<Var> random_vars(Rng& rng, unsigned num_vars, unsigned max_deg) {
    std::vector<Var> vs;
    const size_t d = rng.below(max_deg + 1);
    for (size_t i = 0; i < d; ++i)
        vs.push_back(static_cast<Var>(rng.below(num_vars)));
    return vs;  // unsorted, may contain duplicates -- intern() canonicalises
}

std::vector<Var> canonical(std::vector<Var> vs) {
    std::sort(vs.begin(), vs.end());
    vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
    return vs;
}

TEST(MonomialStore, OneIsAlwaysIdZero) {
    MonomialStore store;
    EXPECT_EQ(store.intern({}), kMonoOne);
    EXPECT_EQ(store.degree(kMonoOne), 0u);
    EXPECT_TRUE(store.vars(kMonoOne).empty());
    // And the global store agrees (a default Monomial is the constant 1).
    EXPECT_EQ(Monomial().id(), kMonoOne);
    EXPECT_TRUE(Monomial().is_one());
}

TEST(MonomialStore, InternIsIdempotent) {
    MonomialStore store;
    const MonoId a = store.intern({3, 1, 2});
    const MonoId b = store.intern({1, 2, 3});
    const MonoId c = store.intern({2, 2, 3, 1, 1});  // x^2 = x
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    EXPECT_EQ(store.vars(a), (std::vector<Var>{1, 2, 3}));
    EXPECT_EQ(store.degree(a), 3u);
    const size_t before = store.size();
    store.intern({3, 2, 1});
    EXPECT_EQ(store.size(), before) << "re-interning must not grow the store";
}

TEST(MonomialStore, MulIsUnionAndMemoised) {
    MonomialStore store;
    const MonoId a = store.intern({0, 2});
    const MonoId b = store.intern({1, 2});
    const MonoId ab = store.mul(a, b);
    EXPECT_EQ(store.vars(ab), (std::vector<Var>{0, 1, 2}));
    EXPECT_EQ(store.mul(a, kMonoOne), a) << "1 is the unit";
    EXPECT_EQ(store.mul(kMonoOne, b), b);
    EXPECT_EQ(store.mul(a, a), a) << "idempotent: m * m = m over GF(2)";
    // Same product again: answered from the memo (per-thread front cache
    // or the store table), and commutatively.
    const size_t misses = store.mul_memo_misses();
    EXPECT_EQ(store.mul(a, b), ab);
    EXPECT_EQ(store.mul(b, a), ab);
    EXPECT_EQ(store.mul_memo_misses(), misses)
        << "a repeated product must not recompute the union";
    EXPECT_GE(store.mul_memo_hits(), 1u);
}

TEST(MonomialStore, QuotientWithoutDividesContains) {
    MonomialStore store;
    const MonoId abc = store.intern({0, 1, 2});
    const MonoId ac = store.intern({0, 2});
    EXPECT_TRUE(store.divides(ac, abc));
    EXPECT_FALSE(store.divides(abc, ac));
    EXPECT_TRUE(store.divides(kMonoOne, ac)) << "1 divides everything";
    EXPECT_EQ(store.quotient(abc, ac), store.intern({1}));
    EXPECT_EQ(store.quotient(abc, abc), kMonoOne);
    EXPECT_EQ(store.without(abc, 1), ac);
    EXPECT_TRUE(store.contains(abc, 1));
    EXPECT_FALSE(store.contains(ac, 1));
}

TEST(MonomialStore, DegLexCompare) {
    MonomialStore store;
    const MonoId one = kMonoOne;
    const MonoId x0 = store.intern({0});
    const MonoId x1 = store.intern({1});
    const MonoId x01 = store.intern({0, 1});
    EXPECT_TRUE(store.less(one, x0));
    EXPECT_TRUE(store.less(x0, x1));
    EXPECT_TRUE(store.less(x1, x01)) << "degree dominates lex";
    EXPECT_EQ(store.compare(x0, x0), 0);
    EXPECT_LT(store.compare(x0, x01), 0);
    EXPECT_GT(store.compare(x01, x1), 0);
}

TEST(MonomialStore, RanksAreOrderIsomorphicToLess) {
    MonomialStore store;
    Rng rng(42);
    std::vector<MonoId> ids;
    for (int i = 0; i < 300; ++i)
        ids.push_back(store.intern(random_vars(rng, 12, 4)));
    const auto ranks = store.ranks();
    for (size_t i = 0; i < ids.size(); ++i) {
        for (size_t j = 0; j < ids.size(); ++j) {
            EXPECT_EQ((*ranks)[ids[i]] < (*ranks)[ids[j]],
                      store.less(ids[i], ids[j]))
                << "rank order must equal deg-lex order";
        }
    }
    // A snapshot taken before further interning stays self-consistent for
    // the ids it covers.
    const size_t covered = ranks->size();
    store.intern({100, 101, 102});
    EXPECT_EQ(ranks->size(), covered);
    const auto fresh = store.ranks();
    EXPECT_GT(fresh->size(), covered);
}

TEST(MonomialStore, SemanticsIndependentOfInterningOrder) {
    // Intern the same vocabulary into two stores in opposite orders: the
    // raw id values differ, but compare(), hash() and rank order agree --
    // the property that keeps all observable output independent of store
    // history.
    Rng rng(7);
    std::vector<std::vector<Var>> vocab;
    for (int i = 0; i < 200; ++i)
        vocab.push_back(canonical(random_vars(rng, 10, 4)));

    MonomialStore fwd, rev;
    std::vector<MonoId> fwd_ids, rev_ids;
    for (const auto& vs : vocab)
        fwd_ids.push_back(
            fwd.intern_sorted(vs.data(), static_cast<uint32_t>(vs.size())));
    for (auto it = vocab.rbegin(); it != vocab.rend(); ++it)
        rev_ids.push_back(
            rev.intern_sorted(it->data(), static_cast<uint32_t>(it->size())));
    std::reverse(rev_ids.begin(), rev_ids.end());  // align with vocab order

    const auto fwd_ranks = fwd.ranks();
    const auto rev_ranks = rev.ranks();
    for (size_t i = 0; i < vocab.size(); ++i) {
        EXPECT_EQ(fwd.hash(fwd_ids[i]), rev.hash(rev_ids[i]))
            << "content hash must not depend on interning order";
        for (size_t j = 0; j < vocab.size(); ++j) {
            const int c1 = fwd.compare(fwd_ids[i], fwd_ids[j]);
            const int c2 = rev.compare(rev_ids[i], rev_ids[j]);
            EXPECT_EQ(c1 < 0, c2 < 0);
            EXPECT_EQ(c1 == 0, c2 == 0);
            EXPECT_EQ((*fwd_ranks)[fwd_ids[i]] < (*fwd_ranks)[fwd_ids[j]],
                      (*rev_ranks)[rev_ids[i]] < (*rev_ranks)[rev_ids[j]]);
        }
    }
}

TEST(MonomialStore, HashMatchesLegacyChain) {
    // The cached hash must reproduce the pre-interning Monomial::hash()
    // exactly (FNV-style chain), so dedup behaviour is unchanged.
    MonomialStore store;
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        const std::vector<Var> vs = canonical(random_vars(rng, 20, 5));
        uint64_t h = 0x9E3779B97F4A7C15ULL;
        for (Var v : vs) h = (h ^ v) * 0x100000001B3ULL;
        EXPECT_EQ(store.hash(store.intern(vs)), h);
    }
}

TEST(MonomialStore, GlobalStoreIsAppendOnly) {
    auto& store = MonomialStore::global();
    const size_t before = store.size();
    const Monomial m(std::vector<Var>{900001, 900002});
    EXPECT_GE(store.size(), before + 1);
    EXPECT_EQ(Monomial(std::vector<Var>{900002, 900001}), m)
        << "hash-consing: same content, same id";
}

// 200k interns of degree-2..6 monomials over 1000 variables: nearly all
// distinct, so the id index doubles many times on the way.
constexpr int kManyInterns = 200000;
std::vector<Var> many_vars(Rng& rng) {
    std::vector<Var> vs;
    const size_t d = 2 + rng.below(5);
    while (vs.size() < d) {
        const Var v = static_cast<Var>(rng.below(1000));
        if (std::find(vs.begin(), vs.end(), v) == vs.end()) vs.push_back(v);
    }
    return canonical(vs);
}

TEST(MonomialStore, IndexGrowthMatchesReferenceMap) {
    MonomialStore store;
    std::map<std::vector<Var>, MonoId> ref{{{}, kMonoOne}};
    Rng rng(2024);
    size_t wrong_ids = 0;
    for (int i = 0; i < kManyInterns; ++i) {
        const std::vector<Var> vs = many_vars(rng);
        const MonoId id =
            store.intern_sorted(vs.data(), static_cast<uint32_t>(vs.size()));
        const auto [it, fresh] = ref.emplace(vs, id);
        if (!fresh && it->second != id) ++wrong_ids;
    }
    EXPECT_EQ(wrong_ids, 0u) << "re-interning must return the first id";
    EXPECT_EQ(store.size(), ref.size());
    EXPECT_GT(ref.size(), size_t{kManyInterns} * 19 / 20);

    size_t mismatches = 0;
    for (const auto& [vs, id] : ref) {
        if (store.intern(vs) != id || !(store.vars(id) == vs) ||
            store.degree(id) != vs.size())
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(store.size(), ref.size()) << "lookups must not intern";
}

TEST(MonomialStore, MulMemoIsBoundedAndExact) {
    // More distinct products than the memo has slots: the memo stays at
    // its fixed size and every product, memoised or recomputed after an
    // overwrite, is the union of the factors.
    MonomialStore store;
    std::vector<MonoId> vars;
    for (Var v = 0; v < 400; ++v) vars.push_back(store.intern_var(v));
    const size_t products = vars.size() * (vars.size() - 1) / 2;
    size_t wrong = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < vars.size(); ++i) {
            for (size_t j = i + 1; j < vars.size(); ++j) {
                const MonoId p = store.mul(vars[j], vars[i]);
                const VarSpan a = store.vars(vars[i]), b = store.vars(vars[j]);
                std::vector<Var> expect;
                std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                               std::back_inserter(expect));
                if (!(store.vars(p) == expect)) ++wrong;
            }
        }
    }
    EXPECT_EQ(wrong, 0u);
    ASSERT_GT(products, MonomialStore::kMulMemoSlots);
    const MonomialStore::Stats st = store.stats();
    EXPECT_GT(st.mul_memo_entries, 0u);
    EXPECT_LE(st.mul_memo_entries, MonomialStore::kMulMemoSlots);
    EXPECT_EQ(st.mul_memo_bytes, MonomialStore::kMulMemoSlots * 12);
    EXPECT_EQ(st.entries, 1 + vars.size() + products);
}

TEST(MonomialStore, FootprintPerMonomial) {
    // Arena + entries + index + memo, per interned monomial. The layout
    // with node-based hash maps for the index and the memo cost ~119 B.
    MonomialStore store;
    Rng rng(99);
    for (int i = 0; i < kManyInterns; ++i) {
        const std::vector<Var> vs = many_vars(rng);
        store.intern_sorted(vs.data(), static_cast<uint32_t>(vs.size()));
    }
    const MonomialStore::Stats st = store.stats();
    EXPECT_EQ(st.entries, store.size());
    EXPECT_GE(st.index_bytes, 2 * st.entries * sizeof(uint32_t))
        << "index load must stay at most 1/2";
    const double per_entry =
        double(st.arena_bytes + st.entry_bytes + st.index_bytes +
               st.mul_memo_bytes) /
        double(st.entries);
    EXPECT_LE(per_entry, 64.0);
}

TEST(MonomialStore, ConcurrentInterningAgreesOnIds) {
    // Four threads intern overlapping vocabularies (and their products
    // with single variables) in different orders into one store: every
    // content gets exactly one id, whichever thread interned it first.
    MonomialStore store;
    Rng rng(5);
    std::vector<std::vector<Var>> vocab;
    for (int i = 0; i < 4000; ++i) vocab.push_back(many_vars(rng));

    constexpr int kThreads = 4;
    std::vector<std::vector<MonoId>> ids(kThreads,
                                         std::vector<MonoId>(vocab.size()));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, &vocab, &ids, t] {
            // Thread t covers three quarters of the vocabulary, starting
            // at a different offset, in alternating directions.
            const size_t n = vocab.size();
            for (size_t k = 0; k < n * 3 / 4; ++k) {
                const size_t off = (t * n / kThreads + k) % n;
                const size_t i = t % 2 ? n - 1 - off : off;
                const auto& vs = vocab[i];
                ids[t][i] = store.intern_sorted(
                    vs.data(), static_cast<uint32_t>(vs.size()));
                store.mul(ids[t][i], store.intern_var(Var(k % 64)));
            }
            for (size_t i = 0; i < n; ++i) {
                const auto& vs = vocab[i];
                ids[t][i] = store.intern_sorted(
                    vs.data(), static_cast<uint32_t>(vs.size()));
            }
        });
    }
    for (auto& th : threads) th.join();

    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
    std::map<std::vector<Var>, MonoId> distinct;
    size_t wrong = 0;
    for (size_t i = 0; i < vocab.size(); ++i) {
        distinct.emplace(vocab[i], ids[0][i]);
        if (!(store.vars(ids[0][i]) == vocab[i]) ||
            distinct.at(vocab[i]) != ids[0][i])
            ++wrong;
    }
    EXPECT_EQ(wrong, 0u);
}

// ---- scratch scope --------------------------------------------------------

std::vector<Var> vars_of(const MonomialStore& store, MonoId id) {
    const VarSpan vs = store.vars(id);
    return std::vector<Var>(vs.begin(), vs.end());
}

std::vector<Var> union_of(const MonomialStore& store, MonoId a, MonoId b) {
    const VarSpan va = store.vars(a), vb = store.vars(b);
    std::vector<Var> out;
    std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                   std::back_inserter(out));
    return out;
}

/// Interns `n` fresh monomials of degree 2..6 over variables from `base`
/// up (disjoint from many_vars' range when base >= 1000).
std::vector<MonoId> intern_fresh(MonomialStore& store, Rng& rng, int n,
                                 Var base) {
    std::vector<MonoId> ids;
    for (int i = 0; i < n; ++i) {
        std::vector<Var> vs = many_vars(rng);
        for (Var& v : vs) v += base;
        ids.push_back(
            store.intern_sorted(vs.data(), static_cast<uint32_t>(vs.size())));
    }
    return ids;
}

TEST(MonomialStoreScope, ReleaseTruncatesToTheMark) {
    MonomialStore store;
    Rng rng(11);
    std::vector<std::vector<Var>> kept;
    std::vector<MonoId> kept_ids;
    for (int i = 0; i < 3000; ++i) {
        kept.push_back(many_vars(rng));
        kept_ids.push_back(store.intern(kept.back()));
    }
    // Products over surviving ids, memoised before the scope: they must
    // survive the release too.
    for (size_t i = 1; i < 200; ++i) store.mul(kept_ids[i - 1], kept_ids[i]);
    const size_t mark = store.size();
    const MonomialStore::Stats before = store.stats();

    std::vector<std::vector<Var>> scratch;
    MonomialStore::Stats inside;
    {
        const MonomialStore::Scope scope(store);
        ASSERT_TRUE(scope.active());
        // Enough to open new entry blocks (8192 ids) and arena chunks
        // (65536 variables) past the ones current at the mark.
        for (const MonoId id : intern_fresh(store, rng, 30000, 1000))
            scratch.push_back(vars_of(store, id));
        for (size_t i = 1; i < 2000; ++i)
            store.mul(kept_ids[i], store.intern_var(Var(5000 + i)));
        inside = store.stats();
        EXPECT_GT(inside.entry_bytes, before.entry_bytes);
        EXPECT_GT(inside.arena_bytes, before.arena_bytes);
    }
    const MonomialStore::Stats after = store.stats();
    EXPECT_EQ(store.size(), mark);
    EXPECT_EQ(after.entries, mark);
    EXPECT_EQ(after.released_ids - before.released_ids,
              inside.entries - mark);
    EXPECT_EQ(after.arena_bytes, before.arena_bytes);
    EXPECT_EQ(after.entry_bytes, before.entry_bytes);
    EXPECT_EQ(after.index_bytes, inside.index_bytes)
        << "the index keeps its capacity";
    // Products naming released ids leave the memo; an in-scope product
    // may also have overwritten a surviving one's slot.
    EXPECT_LE(after.mul_memo_entries, before.mul_memo_entries);
    size_t wrong_products = 0;
    for (size_t i = 1; i < 2000; ++i)
        if (vars_of(store, store.mul(kept_ids[i - 1], kept_ids[i])) !=
            union_of(store, kept_ids[i - 1], kept_ids[i]))
            ++wrong_products;
    EXPECT_EQ(wrong_products, 0u);
    const size_t regrown = store.size();

    size_t moved = 0;
    for (size_t i = 0; i < kept.size(); ++i)
        if (store.intern(kept[i]) != kept_ids[i]) ++moved;
    EXPECT_EQ(moved, 0u) << "surviving content keeps its id";
    EXPECT_EQ(store.size(), regrown) << "survivors are found, not re-interned";

    // Content interned after the release -- fresh, and content that lived
    // inside the scope -- takes the next ids from the mark up.
    MonomialStore ref;
    size_t wrong = 0;
    MonoId next = static_cast<MonoId>(regrown);
    std::set<std::vector<Var>> seen;
    for (size_t i = 0; i < scratch.size(); i += 7) {
        std::vector<Var> vs = scratch[i];
        if (i % 2) vs.push_back(90000 + Var(i));  // fresh content
        if (!seen.insert(vs).second) continue;
        const MonoId id = store.intern(vs);
        if (id != next++ || vars_of(store, id) != vs ||
            store.degree(id) != vs.size() ||
            store.hash(id) != ref.hash(ref.intern(vs)))
            ++wrong;
    }
    EXPECT_EQ(wrong, 0u);
}

TEST(MonomialStoreScope, StaleProductsAreNeverAnswered) {
    // Products r = a * b with a, b below the mark and r above it sit in
    // the shared memo and the owner's front cache when the scope closes.
    // Once other content reuses r's id, neither may answer for (a, b).
    MonomialStore store;
    std::vector<MonoId> xs;
    for (Var v = 0; v < 64; ++v) xs.push_back(store.intern_var(v));
    const size_t mark = store.size();
    std::vector<std::pair<MonoId, MonoId>> pairs;
    {
        const MonomialStore::Scope scope(store);
        for (size_t i = 0; i < xs.size(); ++i) {
            for (size_t j = i + 1; j < xs.size(); j += 5) {
                const MonoId r = store.mul(xs[i], xs[j]);
                ASSERT_GE(r, mark);
                pairs.emplace_back(xs[i], xs[j]);
            }
        }
    }
    ASSERT_EQ(store.size(), mark);
    Rng rng(3);
    intern_fresh(store, rng, int(pairs.size()) + 100, 1000);
    ASSERT_GT(store.size(), mark + pairs.size()) << "every r id is reused";

    // A fresh thread has an empty front cache: it reads the shared memo.
    // It runs first, so the owner below still meets its own old slots.
    size_t wrong_memo = 0;
    std::thread fresh([&] {
        for (const auto& [a, b] : pairs)
            if (vars_of(store, store.mul(a, b)) != union_of(store, a, b))
                ++wrong_memo;
    });
    fresh.join();
    EXPECT_EQ(wrong_memo, 0u) << "shared memo answered a stale product";
    size_t wrong_front = 0;
    for (const auto& [a, b] : pairs)
        if (vars_of(store, store.mul(b, a)) != union_of(store, a, b))
            ++wrong_front;
    EXPECT_EQ(wrong_front, 0u) << "front cache answered a stale product";
}

TEST(MonomialStoreScope, RanksAfterReleaseAndRegrowth) {
    // The ranks() cache is keyed by the entry count: a release followed by
    // regrowth to the same count must not hand back the old table.
    MonomialStore store;
    Rng rng(8);
    for (int i = 0; i < 200; ++i) store.intern(random_vars(rng, 12, 4));
    const size_t mark = store.size();
    {
        const MonomialStore::Scope scope(store);
        intern_fresh(store, rng, 300, 0);
        ASSERT_EQ(store.ranks()->size(), store.size());
    }
    const std::vector<MonoId> fresh = intern_fresh(store, rng, 300, 2000);
    ASSERT_EQ(store.size(), mark + 300) << "regrown to the cached epoch";
    const auto ranks = store.ranks();
    ASSERT_EQ(ranks->size(), store.size());
    std::vector<MonoId> all(store.size());
    for (MonoId id = 0; id < all.size(); ++id) all[id] = id;
    size_t wrong = 0;
    for (const MonoId a : fresh)
        for (MonoId b = 0; b < all.size(); b += 3)
            if (((*ranks)[a] < (*ranks)[b]) != store.less(a, b)) ++wrong;
    EXPECT_EQ(wrong, 0u);
}

// A second thread's store call inside an open scope keeps every id:
// interning, a product answered by the shared memo, or a ranks() snapshot.
// `other_thread` returns the ids it obtained; they and the owner's must
// all keep their content after the scope closes.
using OtherThread =
    std::function<std::vector<MonoId>(MonomialStore&, MonoId, MonoId)>;
void expect_taint_blocks_release(const OtherThread& other_thread) {
    MonomialStore store;
    const MonoId x = store.intern_var(1), y = store.intern_var(2);
    const size_t released = store.stats().released_ids;
    std::vector<MonoId> ids;
    size_t closed_at = 0;
    {
        const MonomialStore::Scope scope(store);
        Rng rng(4);
        ids = intern_fresh(store, rng, 500, 0);
        ids.push_back(store.mul(x, y));
        std::vector<MonoId> theirs;
        std::thread other([&] { theirs = other_thread(store, x, y); });
        other.join();
        ids.insert(ids.end(), theirs.begin(), theirs.end());
        closed_at = store.size();
    }
    EXPECT_EQ(store.size(), closed_at);
    EXPECT_EQ(store.stats().released_ids, released);
    std::vector<std::vector<Var>> content;
    for (const MonoId id : ids) content.push_back(vars_of(store, id));
    size_t moved = 0;
    for (size_t i = 0; i < ids.size(); ++i)
        if (store.intern(content[i]) != ids[i]) ++moved;
    EXPECT_EQ(moved, 0u);
    EXPECT_EQ(store.size(), closed_at);
}

TEST(MonomialStoreScope, OtherThreadInterningBlocksRelease) {
    expect_taint_blocks_release([](MonomialStore& store, MonoId, MonoId) {
        Rng rng(6);
        return intern_fresh(store, rng, 500, 3000);
    });
}

TEST(MonomialStoreScope, OtherThreadMemoHitBlocksRelease) {
    expect_taint_blocks_release([](MonomialStore& store, MonoId x, MonoId y) {
        const size_t misses = store.mul_memo_misses();
        const MonoId r = store.mul(y, x);  // fresh front cache: memo hit
        EXPECT_EQ(store.mul_memo_misses(), misses);
        return std::vector<MonoId>{r};
    });
}

TEST(MonomialStoreScope, OtherThreadRanksBlocksRelease) {
    expect_taint_blocks_release([](MonomialStore& store, MonoId, MonoId) {
        (void)store.ranks();
        return std::vector<MonoId>{};
    });
}

TEST(MonomialStoreScope, NestedAndEmptyScopesAreNoOps) {
    MonomialStore store;
    Rng rng(9);
    intern_fresh(store, rng, 100, 0);
    const size_t base = store.size();
    const MonomialStore::Stats before = store.stats();
    {
        const MonomialStore::Scope empty(store);
        EXPECT_TRUE(empty.active());
    }
    EXPECT_EQ(store.size(), base);
    EXPECT_EQ(store.stats().released_ids, before.released_ids);
    EXPECT_EQ(store.stats().mul_memo_entries, before.mul_memo_entries);

    size_t after_inner = 0;
    {
        const MonomialStore::Scope outer(store);
        intern_fresh(store, rng, 50, 1000);
        {
            const MonomialStore::Scope inner(store);
            EXPECT_FALSE(inner.active());
            bool other_active = true;
            std::thread other([&] {
                const MonomialStore::Scope theirs(store);
                other_active = theirs.active();
            });
            other.join();
            EXPECT_FALSE(other_active) << "one open scope per store";
            intern_fresh(store, rng, 50, 2000);
            after_inner = store.size();
        }
        EXPECT_EQ(store.size(), after_inner) << "a nested scope releases nothing";
        EXPECT_EQ(after_inner, base + 100);
    }
    EXPECT_EQ(store.size(), base) << "the outer scope releases both";
    EXPECT_EQ(store.stats().released_ids, before.released_ids + 100);
}

}  // namespace
}  // namespace bosphorus::anf
