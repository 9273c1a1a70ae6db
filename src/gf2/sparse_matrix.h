// Sparse GF(2) matrices with structured (Faugere-Lachartre) elimination.
//
// The linearised systems of XL, ElimLin and Groebner are ~0.01-0.1% dense
// and stay sparse after full reduction, so a dense bit matrix spends almost
// all of its memory and elimination time on zeros. Here each row is a
// sorted list of column indices, and rref() splits the elimination the way
// Faugere & Lachartre do for F4 matrices ("Parallel Gaussian elimination
// for Groebner bases computations in finite fields", PASCO 2010):
//
//  1. Pivot block: one row per distinct leading column -- the sparsest --
//     is a triangular block as it stands.
//  2. Schur block: every other row is reduced modulo the pivot block with
//     one reusable dense accumulator; what remains lives only on the
//     non-pivot columns.
//  3. The Schur block, compacted to the columns it uses, goes through the
//     dense gf2::Matrix kernel (rref_m4r, the M4RI approach), which also
//     serves as the test oracle for this class.
//  4. Back-substitution clears the pivot rows from the highest pivot
//     column down, and the rows come out in pivot order.
//
// The reduced row echelon form is unique for a fixed column order, so the
// result is row for row what a dense rref of the same matrix gives. The
// Schur block is never larger than that dense matrix, so the worst case is
// the dense cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/cancellation.h"

namespace bosphorus::gf2 {

class SparseMatrix {
public:
    /// Column indices of the set bits, strictly ascending.
    using Row = std::vector<uint32_t>;

    SparseMatrix() = default;
    explicit SparseMatrix(size_t cols) : cols_(cols) {}

    size_t rows() const { return rows_.size(); }
    size_t cols() const { return cols_; }

    const Row& row(size_t r) const { return rows_[r]; }
    size_t row_popcount(size_t r) const { return rows_[r].size(); }
    bool row_is_zero(size_t r) const { return rows_[r].empty(); }

    /// Append a row; `r` must be strictly ascending and below cols().
    void add_row(Row r) { rows_.push_back(std::move(r)); }

    /// In-place reduced row echelon form; returns the rank. Afterwards the
    /// matrix holds exactly the rank nonzero rows, in ascending order of
    /// their leading column (zero rows are dropped). `use_m4r` picks the
    /// dense kernel of the Schur block: rref_m4r, or plain Gauss-Jordan;
    /// both give the same result. `cancel` is polled between the phases,
    /// every 256 rows inside them and before each column block of
    /// rref_m4r; a cancelled call clears the matrix and returns 0.
    size_t rref(bool use_m4r = true,
                const runtime::CancellationToken& cancel = {});

private:
    size_t cols_ = 0;
    std::vector<Row> rows_;
};

}  // namespace bosphorus::gf2
