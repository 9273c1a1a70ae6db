#include "anf/polynomial.h"

#include <algorithm>
#include <charconv>
#include <unordered_set>

namespace bosphorus::anf {

Polynomial::Polynomial(std::vector<Monomial> monomials)
    : monos_(std::move(monomials)) {
    canonicalise();
}

void Polynomial::canonicalise() {
    std::sort(monos_.begin(), monos_.end());
    // Cancel equal pairs: over GF(2), m + m = 0.
    std::vector<Monomial> out;
    out.reserve(monos_.size());
    for (size_t i = 0; i < monos_.size();) {
        size_t j = i;
        while (j < monos_.size() && monos_[j] == monos_[i]) ++j;
        if ((j - i) % 2 == 1) out.push_back(monos_[i]);
        i = j;
    }
    monos_ = std::move(out);
}

size_t Polynomial::degree() const {
    // Canonical order is deg-lex, so the last monomial has maximal degree.
    return monos_.empty() ? 0 : monos_.back().degree();
}

std::vector<Var> Polynomial::variables() const {
    std::vector<Var> vars;
    for (const auto& m : monos_)
        vars.insert(vars.end(), m.vars().begin(), m.vars().end());
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    return vars;
}

bool Polynomial::contains_var(Var v) const {
    for (const auto& m : monos_)
        if (m.contains(v)) return true;
    return false;
}

Polynomial Polynomial::operator+(const Polynomial& o) const {
    // Merge two sorted monomial lists, cancelling equal pairs.
    Polynomial r;
    r.monos_.reserve(monos_.size() + o.monos_.size());
    size_t i = 0, j = 0;
    while (i < monos_.size() && j < o.monos_.size()) {
        if (monos_[i] == o.monos_[j]) {
            ++i;
            ++j;  // cancels
        } else if (monos_[i] < o.monos_[j]) {
            r.monos_.push_back(monos_[i++]);
        } else {
            r.monos_.push_back(o.monos_[j++]);
        }
    }
    r.monos_.insert(r.monos_.end(), monos_.begin() + i, monos_.end());
    r.monos_.insert(r.monos_.end(), o.monos_.begin() + j, o.monos_.end());
    return r;
}

Polynomial& Polynomial::operator+=(const Polynomial& o) {
    if (o.monos_.empty()) return *this;
    if (monos_.empty()) {
        monos_ = o.monos_;
        return *this;
    }
    // Shift the current terms to the tail of the grown buffer, then merge
    // them with o's terms back into the front, cancelling equal pairs.
    // The write cursor can never overrun the tail-read cursor: a write
    // from o implies o is not exhausted, which bounds the cursor strictly
    // below the next tail slot (Monomial is a trivially copyable id, so
    // the moves are raw 4-byte copies).
    const size_t n = monos_.size();
    const size_t m = o.monos_.size();
    monos_.resize(n + m);
    std::move_backward(monos_.begin(), monos_.begin() + n, monos_.end());
    size_t i = m;      // tail-read cursor over the shifted original terms
    size_t j = 0;      // read cursor over o
    size_t w = 0;      // write cursor
    while (i < n + m && j < m) {
        if (monos_[i] == o.monos_[j]) {
            ++i;
            ++j;  // cancels
        } else if (monos_[i] < o.monos_[j]) {
            monos_[w++] = monos_[i++];
        } else {
            monos_[w++] = o.monos_[j++];
        }
    }
    while (i < n + m) monos_[w++] = monos_[i++];
    while (j < m) monos_[w++] = o.monos_[j++];
    monos_.resize(w);
    return *this;
}

Polynomial Polynomial::operator*(const Monomial& m) const {
    std::vector<Monomial> prod;
    prod.reserve(monos_.size());
    for (const auto& mm : monos_) prod.push_back(mm * m);
    // Products can collide (e.g. (x1 + x1x2) * x2 = x1x2 + x1x2 = 0),
    // so re-canonicalise.
    return Polynomial(std::move(prod));
}

Polynomial Polynomial::operator*(const Polynomial& o) const {
    std::vector<Monomial> prod;
    prod.reserve(monos_.size() * o.monos_.size());
    for (const auto& a : monos_)
        for (const auto& b : o.monos_) prod.push_back(a * b);
    return Polynomial(std::move(prod));
}

bool Polynomial::evaluate(const std::vector<bool>& assignment) const {
    bool acc = false;
    for (const auto& m : monos_) acc ^= m.evaluate(assignment);
    return acc;
}

Polynomial Polynomial::substitute(Var v, const Polynomial& by) const {
    Polynomial untouched;   // monomials not involving v (already canonical)
    Polynomial quotients;   // sum of m / v for monomials m containing v
    std::vector<Monomial> untouched_list, quotient_list;
    for (const auto& m : monos_) {
        if (m.contains(v)) {
            quotient_list.push_back(m.without(v));
        } else {
            untouched_list.push_back(m);
        }
    }
    untouched = Polynomial(std::move(untouched_list));
    quotients = Polynomial(std::move(quotient_list));
    return untouched + quotients * by;
}

std::string Polynomial::to_string() const {
    std::string s;
    append_to(s);
    return s;
}

void Polynomial::append_to(std::string& out) const {
    if (monos_.empty()) {
        out += '0';
        return;
    }
    // Print highest degree first, which reads naturally (x1*x2 + x3 + 1).
    char num[16];
    for (auto it = monos_.rbegin(); it != monos_.rend(); ++it) {
        if (it != monos_.rbegin()) out += " + ";
        if (it->is_one()) {
            out += '1';
            continue;
        }
        bool first = true;
        for (Var v : it->vars()) {
            if (!first) out += '*';
            out += 'x';
            const auto res = std::to_chars(num, num + sizeof num, v + 1);
            out.append(num, res.ptr);
            first = false;
        }
    }
}

}  // namespace bosphorus::anf
