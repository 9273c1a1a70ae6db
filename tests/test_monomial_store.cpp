// MonomialStore unit tests: intern idempotence, mul memoisation, deg-lex
// rank monotonicity, independence of the semantics from interning order
// (id values may differ between stores; compare/rank/hash must not), index
// growth against a reference map, the fixed-size product memo, the
// per-monomial footprint and concurrent interning.
#include "anf/monomial_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
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

}  // namespace
}  // namespace bosphorus::anf
