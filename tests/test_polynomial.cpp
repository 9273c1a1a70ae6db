#include "anf/polynomial.h"

#include <gtest/gtest.h>

#include <sstream>

#include "anf/anf_parser.h"
#include "util/rng.h"

namespace bosphorus::anf {
namespace {

Polynomial P(const std::string& s) { return parse_polynomial(s); }

// ---- Monomial ------------------------------------------------------------

TEST(Monomial, ConstantIsOne) {
    Monomial one;
    EXPECT_TRUE(one.is_one());
    EXPECT_EQ(one.degree(), 0u);
}

TEST(Monomial, DedupOnConstruction) {
    Monomial m(std::vector<Var>{2, 0, 2, 1});  // x^2 = x
    EXPECT_EQ(m.degree(), 3u);
    EXPECT_EQ(m.vars(), (std::vector<Var>{0, 1, 2}));
}

TEST(Monomial, ProductIsUnion) {
    const Monomial a(std::vector<Var>{0, 2});
    const Monomial b(std::vector<Var>{1, 2});
    const Monomial ab = a * b;
    EXPECT_EQ(ab.vars(), (std::vector<Var>{0, 1, 2}));
    EXPECT_EQ((a * a), a) << "idempotent: m * m = m over GF(2)";
}

TEST(Monomial, Divides) {
    const Monomial a(std::vector<Var>{0, 2});
    const Monomial b(std::vector<Var>{0, 1, 2});
    EXPECT_TRUE(a.divides(b));
    EXPECT_FALSE(b.divides(a));
    EXPECT_TRUE(Monomial().divides(a)) << "1 divides everything";
}

TEST(Monomial, Without) {
    const Monomial m(std::vector<Var>{0, 1, 2});
    EXPECT_EQ(m.without(1).vars(), (std::vector<Var>{0, 2}));
}

TEST(Monomial, DegLexOrder) {
    const Monomial one;
    const Monomial x0(0), x1(1);
    const Monomial x01(std::vector<Var>{0, 1});
    EXPECT_LT(one, x0);
    EXPECT_LT(x0, x1);
    EXPECT_LT(x1, x01) << "degree dominates lex";
}

TEST(Monomial, Evaluate) {
    const Monomial m(std::vector<Var>{0, 2});
    EXPECT_TRUE(m.evaluate({true, false, true}));
    EXPECT_FALSE(m.evaluate({true, true, false}));
    EXPECT_TRUE(Monomial().evaluate({false}));
}

// ---- Polynomial ------------------------------------------------------------

TEST(Polynomial, ZeroAndOne) {
    EXPECT_TRUE(Polynomial().is_zero());
    EXPECT_TRUE(Polynomial::constant(true).is_one());
    EXPECT_TRUE(Polynomial::constant(false).is_zero());
    EXPECT_TRUE(Polynomial::constant(true).is_constant());
    EXPECT_FALSE(P("x1").is_constant());
}

TEST(Polynomial, AdditionCancels) {
    EXPECT_TRUE((P("x1 + x2") + P("x1 + x2")).is_zero());
    EXPECT_EQ(P("x1") + P("x2"), P("x1 + x2"));
    EXPECT_EQ(P("x1 + x2") + P("x2 + x3"), P("x1 + x3"));
}

TEST(Polynomial, ConstructorCancelsPairs) {
    const Monomial x0(0);
    Polynomial p({x0, x0, Monomial(1)});
    EXPECT_EQ(p, P("x2"));
    Polynomial q({x0, x0, x0});
    EXPECT_EQ(q, P("x1"));
}

TEST(Polynomial, MultiplicationDistributes) {
    // (x1 + x2) * (x1 + x3) = x1 + x1x2 + x1x3 + x2x3 (since x1*x1 = x1)
    EXPECT_EQ(P("x1 + x2") * P("x1 + x3"),
              P("x1 + x1*x2 + x1*x3 + x2*x3"));
}

TEST(Polynomial, MultiplicationByMonomialCancels) {
    // (x1 + x1*x2) * x2 = x1x2 + x1x2 = 0
    const Polynomial p = P("x1 + x1*x2");
    EXPECT_TRUE((p * Monomial(1)).is_zero());
}

TEST(Polynomial, PaperElimLinExample) {
    // Section II-C: substituting x1 = x2 + x3 into x1x2 + x2x3 + 1
    // simplifies to x2 + 1.
    const Polynomial p = P("x1*x2 + x2*x3 + 1");
    EXPECT_EQ(p.substitute(0, P("x2 + x3")), P("x2 + 1"));
}

TEST(Polynomial, DegreeAndLinear) {
    EXPECT_EQ(P("x1*x2*x3 + x1").degree(), 3u);
    EXPECT_EQ(P("1").degree(), 0u);
    EXPECT_EQ(Polynomial().degree(), 0u);
    EXPECT_TRUE(P("x1 + x2 + 1").is_linear());
    EXPECT_FALSE(P("x1*x2").is_linear());
}

TEST(Polynomial, Variables) {
    EXPECT_EQ(P("x1*x3 + x2 + 1").variables(), (std::vector<Var>{0, 1, 2}));
    EXPECT_TRUE(P("1").variables().empty());
    EXPECT_TRUE(P("x1*x3 + x2").contains_var(2));
    EXPECT_FALSE(P("x1*x3 + x2").contains_var(3));
}

TEST(Polynomial, LeadingMonomialIsMaxDegLex) {
    const Polynomial p = P("x1*x2 + x3 + 1");
    EXPECT_EQ(p.leading_monomial(), Monomial(std::vector<Var>{0, 1}));
}

TEST(Polynomial, HasConstantTerm) {
    EXPECT_TRUE(P("x1 + 1").has_constant_term());
    EXPECT_FALSE(P("x1 + x2").has_constant_term());
}

TEST(Polynomial, EvaluateMatchesStructure) {
    const Polynomial p = P("x1*x2 + x3 + 1");
    // x1=1, x2=1, x3=1: 1 + 1 + 1 = 1.
    EXPECT_TRUE(p.evaluate({true, true, true}));
    // x1=1, x2=1, x3=0: 1 + 0 + 1 = 0.
    EXPECT_FALSE(p.evaluate({true, true, false}));
}

TEST(Polynomial, ToStringRoundTrip) {
    for (const char* s : {"0", "1", "x1", "x1 + 1", "x1*x2 + x3 + 1",
                          "x1*x2*x3 + x2*x3 + x1 + x2"}) {
        const Polynomial p = P(s);
        EXPECT_EQ(parse_polynomial(p.to_string()), p) << s;
    }
}

TEST(Polynomial, SubstituteByConstants) {
    const Polynomial p = P("x1*x2 + x3 + 1");
    EXPECT_EQ(p.substitute(0, Polynomial::constant(true)), P("x2 + x3 + 1"));
    EXPECT_EQ(p.substitute(0, Polynomial()), P("x3 + 1"));
}

TEST(Polynomial, SubstituteByNegation) {
    // x = !y: x1 -> x2 + 1 in x1*x2: (x2+1)x2 = x2 + x2 = 0... precisely:
    // (x2 + 1) * x2 = x2*x2 + x2 = x2 + x2 = 0.
    EXPECT_TRUE(P("x1*x2").substitute(0, P("x2 + 1")).is_zero());
}

// Property sweep: substitution commutes with evaluation.
class PolynomialRandom : public ::testing::TestWithParam<int> {};

Polynomial random_poly(Rng& rng, unsigned num_vars, unsigned max_monos,
                       unsigned max_deg) {
    std::vector<Monomial> monos;
    const size_t n = 1 + rng.below(max_monos);
    for (size_t i = 0; i < n; ++i) {
        std::vector<Var> vars;
        const size_t d = rng.below(max_deg + 1);
        for (size_t j = 0; j < d; ++j)
            vars.push_back(static_cast<Var>(rng.below(num_vars)));
        monos.emplace_back(std::move(vars));
    }
    return Polynomial(std::move(monos));
}

TEST_P(PolynomialRandom, SubstitutionCommutesWithEvaluation) {
    Rng rng(GetParam());
    const unsigned nv = 6;
    const Polynomial p = random_poly(rng, nv, 8, 3);
    const Var target = static_cast<Var>(rng.below(nv));
    const Polynomial by = random_poly(rng, nv, 4, 2);
    const Polynomial subst = p.substitute(target, by);
    for (uint32_t m = 0; m < (1u << nv); ++m) {
        std::vector<bool> a(nv);
        for (unsigned v = 0; v < nv; ++v) a[v] = (m >> v) & 1;
        std::vector<bool> patched = a;
        patched[target] = by.evaluate(a);
        EXPECT_EQ(subst.evaluate(a), p.evaluate(patched));
    }
}

TEST_P(PolynomialRandom, RingAxioms) {
    Rng rng(GetParam() + 500);
    const unsigned nv = 5;
    const Polynomial a = random_poly(rng, nv, 6, 3);
    const Polynomial b = random_poly(rng, nv, 6, 3);
    const Polynomial c = random_poly(rng, nv, 6, 3);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_TRUE((a + a).is_zero());
    EXPECT_EQ(a * a, a) << "Boolean ring: p^2 = p";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolynomialRandom, ::testing::Range(0, 15));

// ---- parser ------------------------------------------------------------

TEST(AnfParser, BasicForms) {
    EXPECT_TRUE(P("0").is_zero());
    EXPECT_TRUE(P("1").is_one());
    EXPECT_EQ(P("x(3)"), Polynomial::variable(2));
    EXPECT_EQ(P(" x1 * x2 + 1 "), P("x1*x2+1"));
}

TEST(AnfParser, Errors) {
    EXPECT_THROW(parse_polynomial(""), ParseError);
    EXPECT_THROW(parse_polynomial("x"), ParseError);
    EXPECT_THROW(parse_polynomial("x0"), ParseError) << "1-based variables";
    EXPECT_THROW(parse_polynomial("x1 +"), ParseError);
    EXPECT_THROW(parse_polynomial("x1 & x2"), ParseError);
    EXPECT_THROW(parse_polynomial("x(2"), ParseError);
}

TEST(AnfParser, SystemWithComments) {
    const auto sys = parse_system_from_string(
        "c a comment\n"
        "# another\n"
        "x1*x2 + x3\n"
        "\n"
        "x4 + 1\n");
    EXPECT_EQ(sys.polynomials.size(), 2u);
    EXPECT_EQ(sys.num_vars, 4u);
}

TEST(AnfParser, WriteReadRoundTrip) {
    const auto sys = parse_system_from_string("x1*x2 + x3 + 1\nx2 + x4\n");
    std::ostringstream out;
    write_system(out, sys.polynomials);
    const auto again = parse_system_from_string(out.str());
    EXPECT_EQ(again.polynomials, sys.polynomials);
}

/// The renderer before write_system and to_string shared one buffer.
std::string reference_to_string(const Polynomial& p) {
    if (p.is_zero()) return "0";
    std::string s;
    for (auto it = p.monomials().rbegin(); it != p.monomials().rend(); ++it) {
        if (!s.empty()) s += " + ";
        if (it->is_one()) {
            s += "1";
        } else {
            bool first = true;
            for (Var v : it->vars()) {
                if (!first) s += "*";
                s += "x" + std::to_string(v + 1);
                first = false;
            }
        }
    }
    return s;
}

TEST(AnfParser, WriteSystemIsByteIdenticalToReferenceRenderer) {
    Rng rng(17);
    std::vector<Polynomial> polys = {Polynomial(), Polynomial::constant(true),
                                     Polynomial::variable(0),
                                     Polynomial::variable(4'000'000'000u)};
    for (int i = 0; i < 200; ++i) {
        std::vector<Monomial> monos;
        for (uint64_t t = 0, n = rng.below(6); t < n; ++t) {
            std::vector<Var> vars;
            for (uint64_t d = 0, k = rng.below(4); d < k; ++d)
                vars.push_back(static_cast<Var>(rng.below(i < 100 ? 12 : 100000)));
            monos.emplace_back(std::move(vars));
        }
        polys.emplace_back(std::move(monos));
    }
    std::string expected;
    for (const auto& p : polys) {
        EXPECT_EQ(p.to_string(), reference_to_string(p));
        expected += reference_to_string(p) + "\n";
    }
    std::ostringstream out;
    write_system(out, polys);
    EXPECT_EQ(out.str(), expected);
}

}  // namespace
}  // namespace bosphorus::anf
