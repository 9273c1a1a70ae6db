// Linearisation: treating each monomial as an independent GF(2) variable.
//
// XL, ElimLin and Groebner all work on the linearised system (paper
// sections II-B, II-C): each distinct monomial maps to one matrix column
// and each polynomial to one row. The rows are sparse -- a polynomial has a
// handful of terms against tens of thousands of columns -- so the matrix
// is a gf2::SparseMatrix and reduce() runs its structured elimination
// (a sparse pivot block plus a small dense Schur block; see
// gf2/sparse_matrix.h). No dense linearisation is ever materialised.
//
// Columns are ordered *descending* in degree-lexicographic order (constant
// term last), so elimination removes high-degree monomials first and the
// fully-reduced rows end with low-degree tails -- this is what makes the
// retained rows of Table I come out as linear and monomial facts. It also
// makes fact extraction a test on a row's shape: a row is linear iff its
// leading column has degree <= 1.
//
// The monomial -> column map is keyed by the interned 4-byte MonoId (the
// old map hashed whole variable vectors per term), and the column sort
// runs on the store's precomputed deg-lex ranks when the column set is a
// large fraction of the interned vocabulary. All structures are sized by
// the system's own term count, with one exception: when cols * 16 >=
// store.size() the column sort reads MonomialStore::ranks(), whose rebuild
// allocates two vectors as long as the whole store. Below that ratio a
// long-lived Session that has interned millions of monomials does not
// inflate later linearisations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "anf/polynomial.h"
#include "gf2/sparse_matrix.h"
#include "runtime/cancellation.h"
#include "util/rng.h"

namespace bosphorus::core {

struct Linearization {
    std::vector<anf::Monomial> col_monomial;  // column -> monomial
    /// MonoId -> column index, for the monomials that occur in the system.
    std::unordered_map<anf::MonoId, uint32_t> col_index;
    /// One row per polynomial, columns ascending (highest monomial first);
    /// after reduce(), the reduced nonzero rows in pivot order.
    gf2::SparseMatrix matrix;

    size_t rows() const { return matrix.rows(); }
    size_t cols() const { return matrix.cols(); }

    /// Row shape tests, read off the columns alone. A row is linear iff
    /// its leading monomial has degree <= 1; it is 1 = 0 iff it holds only
    /// the constant column; it is a fact (linear, or monomial + 1) iff it
    /// is linear or has two entries, the second the constant column.
    bool row_is_linear(size_t r) const {
        const auto& row = matrix.row(r);
        return !row.empty() && col_monomial[row.front()].degree() <= 1;
    }
    bool row_is_one(size_t r) const {
        const auto& row = matrix.row(r);
        return row.size() == 1 && col_monomial[row.front()].is_one();
    }
    bool row_is_fact(size_t r) const {
        const auto& row = matrix.row(r);
        return row_is_linear(r) ||
               (row.size() == 2 && col_monomial[row.back()].is_one());
    }

    /// Column of a monomial; throws std::out_of_range if it does not
    /// occur in the linearised system.
    size_t col_of(const anf::Monomial& m) const {
        return col_index.at(m.id());
    }
};

/// Build the linearised matrix of a polynomial system.
Linearization linearize(const std::vector<anf::Polynomial>& polys);

/// Reduce the linearised matrix to RREF and return its rank; afterwards
/// the matrix holds the rank nonzero rows in pivot order. This is the one
/// elimination entry point the hot loops (XL, ElimLin, Groebner) go
/// through. `use_m4r` (the default) picks the Method of Four Russians for
/// the dense Schur block, otherwise plain Gauss-Jordan; both produce the
/// identical reduced matrix, so the flag is a pure performance switch (see
/// XlConfig::use_m4r). `cancel` is polled between the elimination's phases
/// and every 256 rows inside them; on cancellation the matrix is discarded
/// (no rows) and 0 is returned.
size_t reduce(Linearization& lin, bool use_m4r = true,
              const runtime::CancellationToken& cancel = {});

/// Reconstruct the polynomial encoded by a matrix row.
anf::Polynomial row_to_polynomial(const Linearization& lin, size_t row);

/// After RREF: collect the learnt facts Bosphorus retains -- rows that are
/// linear equations, and rows of the form (monomial + 1). A row equal to the
/// constant 1 (i.e. 1 = 0) is returned as the constant-one polynomial.
/// Only the rows kept are turned into polynomials.
std::vector<anf::Polynomial> extract_facts(const Linearization& lin);

/// Linearised size m * n of a system: rows x distinct monomials. Used for
/// the paper's 2^M subsampling budget.
size_t linearized_size(const std::vector<anf::Polynomial>& polys);

/// Uniformly subsample polynomials until the linearised size m'*n' reaches
/// `budget` (~2^M), per paper sections II-B/II-C. Returns indices into
/// `polys`. If the whole system fits in the budget, all indices are
/// returned.
std::vector<size_t> subsample(const std::vector<anf::Polynomial>& polys,
                              size_t budget, Rng& rng);

}  // namespace bosphorus::core
