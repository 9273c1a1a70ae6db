// Dense GF(2) matrices with bit-packed rows and Gauss-Jordan elimination.
//
// This module substitutes for M4RI in the original Bosphorus. The algebraic
// layers (XL, ElimLin, Groebner) eliminate on gf2::SparseMatrix
// (gf2/sparse_matrix.h), which hands only its small dense Schur block to
// rref_m4r here; the dense kernel is also that class's test oracle, and the
// direct kernel of the S-box implicit-quadratic derivation, the XOR engine
// and the stream preprocessor. Rows are packed 64 bits per machine word, so
// row-XOR (the inner loop of elimination) runs word-parallel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/cancellation.h"
#include "util/rng.h"

namespace bosphorus::gf2 {

/// Dense matrix over GF(2). Rows are bit-packed into 64-bit words.
///
/// rref() is plain word-sliced Gauss-Jordan (dispatching large matrices to
/// rref_m4r() unless pivot columns are requested); rref_m4r() is M4RI's
/// Method of Four Russians. Both give the identical reduced matrix.
class Matrix {
public:
    Matrix() = default;
    Matrix(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), words_per_row_((cols + 63) / 64),
          data_(rows * words_per_row_, 0) {}

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    bool get(size_t r, size_t c) const {
        return (word(r, c / 64) >> (c % 64)) & 1ULL;
    }

    void set(size_t r, size_t c, bool v) {
        uint64_t& w = word(r, c / 64);
        const uint64_t mask = 1ULL << (c % 64);
        if (v) w |= mask; else w &= ~mask;
    }

    void flip(size_t r, size_t c) { word(r, c / 64) ^= 1ULL << (c % 64); }

    /// rows_[dst] ^= rows_[src]
    void xor_row(size_t dst, size_t src) {
        uint64_t* d = row_ptr(dst);
        const uint64_t* s = row_ptr(src);
        for (size_t w = 0; w < words_per_row_; ++w) d[w] ^= s[w];
    }

    void swap_rows(size_t a, size_t b) {
        if (a == b) return;
        uint64_t* pa = row_ptr(a);
        uint64_t* pb = row_ptr(b);
        for (size_t w = 0; w < words_per_row_; ++w) std::swap(pa[w], pb[w]);
    }

    bool row_is_zero(size_t r) const {
        const uint64_t* p = row_ptr(r);
        for (size_t w = 0; w < words_per_row_; ++w)
            if (p[w] != 0) return false;
        return true;
    }

    /// Column index of the first set bit in row r, or -1 if the row is zero.
    long first_set_in_row(size_t r) const;

    /// Number of set bits in row r.
    size_t row_popcount(size_t r) const;

    /// Column indices of the set bits in row r, ascending.
    std::vector<uint32_t> row_ones(size_t r) const;

    /// Append a zero row and return its index.
    size_t add_row();

    /// In-place reduced row echelon form (Gauss-Jordan elimination).
    /// Returns the rank. `pivot_cols`, if non-null, receives the pivot column
    /// of row i for i < rank, in increasing order. Large matrices without a
    /// pivot-column request are dispatched to the Method of Four Russians.
    size_t rref(std::vector<size_t>* pivot_cols = nullptr);

    /// Method of Four Russians RREF (the M4RI algorithm): pivots are found
    /// k at a time, all 2^k combinations of the pivot rows are tabulated,
    /// and every other row is cleared with a single table lookup + row XOR.
    /// Word-for-word the same result as plain rref(). `cancel` is polled
    /// before each column block; a cancelled call returns the rank reached
    /// so far and leaves the matrix partly reduced, for the caller to
    /// discard.
    size_t rref_m4r(unsigned k = 8,
                    const runtime::CancellationToken& cancel = {});

    /// Row echelon form only (no back-substitution). Returns rank.
    size_t row_echelon();

    /// Basis of the right nullspace: each returned row vector v satisfies
    /// M v = 0. The matrix is left in RREF.
    std::vector<std::vector<bool>> nullspace();

    /// C = A * B over GF(2). Requires A.cols() == B.rows().
    static Matrix multiply(const Matrix& a, const Matrix& b);

    static Matrix identity(size_t n);

    static Matrix random(size_t rows, size_t cols, Rng& rng);

    bool operator==(const Matrix& o) const {
        return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
    }

private:
    uint64_t& word(size_t r, size_t w) { return data_[r * words_per_row_ + w]; }
    const uint64_t& word(size_t r, size_t w) const {
        return data_[r * words_per_row_ + w];
    }
    uint64_t* row_ptr(size_t r) { return data_.data() + r * words_per_row_; }
    const uint64_t* row_ptr(size_t r) const {
        return data_.data() + r * words_per_row_;
    }

    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t words_per_row_ = 0;
    std::vector<uint64_t> data_;
};

}  // namespace bosphorus::gf2
