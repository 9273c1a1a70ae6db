// Representation-equivalence suite: the interned-monomial algebra must be
// observably bit-identical to the pre-interning reference representation
// (anf/legacy_terms.h) -- same canonical deg-lex order, same strings, same
// facts -- and the surrounding machinery (linearise column order, the
// AnfSystem snapshot trail) must be independent of store history.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "anf/monomial_store.h"
#include "anf/polynomial.h"
#include "core/anf_system.h"
#include "core/linearize.h"
#include "test_util.h"
#include "util/rng.h"

#ifdef BOSPHORUS_LEGACY_TERMS
#include "anf/legacy_terms.h"
#endif

namespace bosphorus {
namespace {

using anf::Monomial;
using anf::Polynomial;
using anf::Var;

// Representation-neutral random polynomial description.
using PolyDesc = std::vector<std::vector<Var>>;

PolyDesc random_desc(Rng& rng, unsigned num_vars, unsigned max_monos,
                     unsigned max_deg) {
    PolyDesc desc;
    const size_t n = 1 + rng.below(max_monos);
    for (size_t i = 0; i < n; ++i) {
        std::vector<Var> vars;
        const size_t d = rng.below(max_deg + 1);
        for (size_t j = 0; j < d; ++j)
            vars.push_back(static_cast<Var>(rng.below(num_vars)));
        desc.push_back(std::move(vars));
    }
    return desc;
}

template <class Poly, class Mono>
Poly build(const PolyDesc& desc) {
    std::vector<Mono> monos;
    monos.reserve(desc.size());
    for (const auto& vs : desc) monos.push_back(Mono(vs));
    return Poly(std::move(monos));
}

#ifdef BOSPHORUS_LEGACY_TERMS

using LMono = anf::legacy::Monomial;
using LPoly = anf::legacy::Polynomial;

class ReprEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ReprEquivalence, AlgebraMatchesReferenceBitForBit) {
    Rng rng(testutil::test_seed() * 1000003 + GetParam() * 977 + 5);
    const unsigned nv = 10;
    for (int round = 0; round < 20; ++round) {
        const PolyDesc da = random_desc(rng, nv, 8, 4);
        const PolyDesc db = random_desc(rng, nv, 6, 3);
        const Polynomial a = build<Polynomial, Monomial>(da);
        const Polynomial b = build<Polynomial, Monomial>(db);
        const LPoly la = build<LPoly, LMono>(da);
        const LPoly lb = build<LPoly, LMono>(db);

        // Construction canonicalises identically...
        ASSERT_EQ(a.to_string(), la.to_string());
        EXPECT_EQ(a.size(), la.size());
        EXPECT_EQ(a.degree(), la.degree());
        EXPECT_EQ(a.variables(), la.variables());
        EXPECT_EQ(a.has_constant_term(), la.has_constant_term());
        if (!a.is_zero()) {
            EXPECT_EQ(a.leading_monomial().degree(),
                      la.leading_monomial().degree());
        }

        // ...and so does every operation the pipeline uses.
        EXPECT_EQ((a + b).to_string(), (la + lb).to_string());
        EXPECT_EQ((a * b).to_string(), (la * lb).to_string());
        Polynomial acc = a;
        acc += b;  // the in-place merge against the reference operator+
        EXPECT_EQ(acc.to_string(), (la + lb).to_string());
        Polynomial self = a;
        self += a;
        EXPECT_TRUE(self.is_zero()) << "p += p must cancel to zero";

        const Var target = static_cast<Var>(rng.below(nv));
        EXPECT_EQ(a.substitute(target, b).to_string(),
                  la.substitute(target, lb).to_string());

        std::vector<bool> assignment(nv);
        for (unsigned v = 0; v < nv; ++v) assignment[v] = rng.coin();
        EXPECT_EQ(a.evaluate(assignment), la.evaluate(assignment));

        // Polynomial ordering (used for canonical system sorting).
        const Polynomial a2 = build<Polynomial, Monomial>(db);
        const LPoly la2 = build<LPoly, LMono>(db);
        EXPECT_EQ(a < a2, la < la2);
        EXPECT_EQ(a == a2, la == la2);
    }
}

TEST_P(ReprEquivalence, MonomialOrderAndHashMatchReference) {
    Rng rng(testutil::test_seed() * 1000003 + GetParam() * 31 + 2);
    for (int i = 0; i < 100; ++i) {
        const PolyDesc d = random_desc(rng, 12, 3, 5);
        const Monomial m(d[0]), n(d[1 % d.size()]);
        const LMono lm(d[0]), ln(d[1 % d.size()]);
        EXPECT_EQ(m.degree(), lm.degree());
        EXPECT_EQ(m.hash(), lm.hash())
            << "cached hash must equal the reference chain";
        EXPECT_EQ(m < n, lm < ln) << "deg-lex order must match the reference";
        EXPECT_EQ(m == n, lm == ln);
        EXPECT_EQ(m.divides(n), lm.divides(ln));
        EXPECT_EQ((m * n).vars() == (lm * ln).vars(), true);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReprEquivalence, ::testing::Range(0, 10));

#endif  // BOSPHORUS_LEGACY_TERMS

// ---- store-history independence of the lineariser ------------------------

TEST(Linearize, ColumnOrderIndependentOfStoreSize) {
    // linearize() picks between rank-table and direct compares based on
    // how big the column set is relative to the interned vocabulary. Both
    // branches must order columns identically: take a system, linearise
    // (small store -> rank path likely), then intern a pile of unrelated
    // vocabulary to flip the heuristic and linearise again.
    Rng rng(testutil::test_seed() * 1000003 + 123);
    std::vector<Polynomial> polys;
    for (int i = 0; i < 12; ++i)
        polys.push_back(build<Polynomial, Monomial>(random_desc(rng, 8, 6, 3)));
    polys.erase(std::remove_if(polys.begin(), polys.end(),
                               [](const Polynomial& p) { return p.is_zero(); }),
                polys.end());

    const core::Linearization before = core::linearize(polys);

    auto& store = anf::MonomialStore::global();
    const size_t cols = before.col_monomial.size();
    // Intern > 16x the column count of junk so cols*16 < store growth.
    for (size_t i = 0; store.size() < cols * 64 + 1000 && i < 100000; ++i)
        store.intern({static_cast<Var>(500000 + i),
                      static_cast<Var>(500001 + i)});

    const core::Linearization after = core::linearize(polys);
    ASSERT_EQ(before.col_monomial.size(), after.col_monomial.size());
    for (size_t c = 0; c < before.col_monomial.size(); ++c) {
        EXPECT_EQ(before.col_monomial[c], after.col_monomial[c])
            << "column order leaked store history at column " << c;
    }
    // Descending deg-lex, constant term last -- as documented.
    for (size_t c = 0; c + 1 < after.col_monomial.size(); ++c)
        EXPECT_TRUE(after.col_monomial[c + 1] < after.col_monomial[c]);
}

// ---- snapshot trail exactness on the interned representation -------------

std::vector<std::string> system_strings(const core::AnfSystem& sys) {
    std::vector<std::string> out;
    for (const auto& p : sys.to_polynomials()) out.push_back(p.to_string());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(SnapshotTrail, RestoreIsExactAndStoreIsAppendOnly) {
    Rng rng(testutil::test_seed() * 1000003 + 321);
    for (int round = 0; round < 10; ++round) {
        std::vector<Polynomial> polys;
        for (int i = 0; i < 10; ++i)
            polys.push_back(
                build<Polynomial, Monomial>(random_desc(rng, 8, 5, 3)));
        core::AnfSystem sys(polys, 8);

        const auto before = system_strings(sys);
        const bool ok_before = sys.okay();
        const auto snap = sys.snapshot();
        const size_t store_before = anf::MonomialStore::global().size();

        // Mutate: add random facts (some may contradict -- that's the
        // interesting rewind case).
        for (int i = 0; i < 5; ++i)
            sys.add_fact(build<Polynomial, Monomial>(random_desc(rng, 8, 3, 2)));

        sys.restore(snap);
        EXPECT_EQ(system_strings(sys), before)
            << "pop must rewind the system bit-exactly";
        EXPECT_EQ(sys.okay(), ok_before);
        EXPECT_GE(anf::MonomialStore::global().size(), store_before)
            << "rewinds never release store entries";
        sys.clear_trail();
    }
}

}  // namespace
}  // namespace bosphorus
