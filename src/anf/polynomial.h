// Boolean polynomials: XOR-sums of monomials over GF(2).
//
// A polynomial is kept in canonical form: monomials sorted in
// degree-lexicographic order with no duplicates (addition is XOR, so a
// monomial appearing twice cancels). Following the paper's convention, a
// Polynomial denotes the polynomial *equation* p = 0 when it sits in an
// ANF system.
//
// Since Monomial is a 4-byte interned id (anf/monomial.h), the monomial
// list is a packed sorted vector of MonoIds: copies are memcpys, equality
// is an id-vector compare, and operator+= merges in place without
// allocating per term.
#pragma once

#include <string>
#include <vector>

#include "anf/monomial.h"

namespace bosphorus::anf {

class Polynomial {
public:
    /// The zero polynomial.
    Polynomial() = default;

    /// Polynomial with a single monomial.
    explicit Polynomial(Monomial m) : monos_{std::move(m)} {}

    /// From a list of monomials; canonicalises (sorts, cancels pairs).
    explicit Polynomial(std::vector<Monomial> monomials);

    /// The constant polynomial 0 or 1.
    static Polynomial constant(bool one) {
        return one ? Polynomial(Monomial{}) : Polynomial();
    }

    static Polynomial variable(Var v) { return Polynomial(Monomial{v}); }

    bool is_zero() const { return monos_.empty(); }
    bool is_one() const { return monos_.size() == 1 && monos_[0].is_one(); }
    bool is_constant() const { return monos_.empty() || is_one(); }

    /// Largest monomial degree (0 for constants; 0 for the zero polynomial).
    size_t degree() const;

    /// True iff every monomial has degree <= 1.
    bool is_linear() const { return degree() <= 1; }

    /// The number of monomials (including the constant term if present).
    size_t size() const { return monos_.size(); }

    const std::vector<Monomial>& monomials() const { return monos_; }

    /// Leading monomial under deg-lex (the last in sorted order).
    /// Precondition: !is_zero().
    const Monomial& leading_monomial() const { return monos_.back(); }

    /// True iff the constant monomial 1 appears.
    bool has_constant_term() const {
        return !monos_.empty() && monos_.front().is_one();
    }

    /// Distinct variables appearing in the polynomial, sorted.
    std::vector<Var> variables() const;

    bool contains_var(Var v) const;

    /// GF(2) addition = symmetric difference of monomial sets.
    Polynomial operator+(const Polynomial& o) const;

    /// In-place sorted merge with pair cancellation: one resize, no
    /// temporary polynomial (the old `*this = *this + o` copied the whole
    /// term list per call -- measurable in the ElimLin substitution loop).
    Polynomial& operator+=(const Polynomial& o);

    Polynomial operator*(const Monomial& m) const;
    Polynomial operator*(const Polynomial& o) const;

    bool operator==(const Polynomial& o) const { return monos_ == o.monos_; }
    bool operator!=(const Polynomial& o) const { return monos_ != o.monos_; }

    /// Deterministic total order (lexicographic on the monomial lists) so
    /// polynomial systems can be sorted/deduplicated canonically.
    bool operator<(const Polynomial& o) const { return monos_ < o.monos_; }

    /// Evaluate under a full assignment.
    bool evaluate(const std::vector<bool>& assignment) const;

    /// Substitute variable v by polynomial `by` (e.g. by a constant, another
    /// variable, its negation, or a general polynomial). Returns the
    /// canonicalised result.
    Polynomial substitute(Var v, const Polynomial& by) const;

    size_t hash() const {
        size_t h = 0xCBF29CE484222325ULL;
        for (const auto& m : monos_) h = (h ^ m.hash()) * 0x100000001B3ULL;
        return h;
    }

    /// Render as e.g. "x1*x2 + x3 + 1" using 1-based variable names.
    std::string to_string() const;

    /// Append the to_string() rendering to `out`.
    void append_to(std::string& out) const;

private:
    void canonicalise();

    std::vector<Monomial> monos_;
};

struct PolynomialHash {
    size_t operator()(const Polynomial& p) const { return p.hash(); }
};

}  // namespace bosphorus::anf
