#include "gf2/gf2_matrix.h"

#include <bit>

namespace bosphorus::gf2 {

long Matrix::first_set_in_row(size_t r) const {
    const uint64_t* p = row_ptr(r);
    for (size_t w = 0; w < words_per_row_; ++w) {
        if (p[w] != 0) {
            const long c = static_cast<long>(w * 64 + std::countr_zero(p[w]));
            return c < static_cast<long>(cols_) ? c : -1;
        }
    }
    return -1;
}

size_t Matrix::row_popcount(size_t r) const {
    const uint64_t* p = row_ptr(r);
    size_t n = 0;
    for (size_t w = 0; w < words_per_row_; ++w) n += std::popcount(p[w]);
    return n;
}

std::vector<uint32_t> Matrix::row_ones(size_t r) const {
    std::vector<uint32_t> out;
    const uint64_t* p = row_ptr(r);
    for (size_t w = 0; w < words_per_row_; ++w)
        for (uint64_t m = p[w]; m != 0; m &= m - 1)
            out.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(m)));
    return out;
}

size_t Matrix::add_row() {
    data_.resize(data_.size() + words_per_row_, 0);
    return rows_++;
}

size_t Matrix::rref(std::vector<size_t>* pivot_cols) {
    // Big eliminations without a pivot-column request go through the
    // Four-Russians path; it produces the identical reduced matrix.
    if (!pivot_cols && rows_ >= 128 && cols_ >= 128) return rref_m4r();
    if (pivot_cols) pivot_cols->clear();
    size_t rank = 0;
    for (size_t col = 0; col < cols_ && rank < rows_; ++col) {
        // Find a pivot row at or below `rank` with a 1 in this column.
        size_t pivot = rows_;
        for (size_t r = rank; r < rows_; ++r) {
            if (get(r, col)) { pivot = r; break; }
        }
        if (pivot == rows_) continue;
        swap_rows(rank, pivot);
        // Eliminate the column from every other row (full Gauss-Jordan).
        for (size_t r = 0; r < rows_; ++r) {
            if (r != rank && get(r, col)) xor_row(r, rank);
        }
        if (pivot_cols) pivot_cols->push_back(col);
        ++rank;
    }
    return rank;
}

size_t Matrix::rref_m4r(unsigned k, const runtime::CancellationToken& cancel) {
    if (k < 1) k = 1;
    if (k > 16) k = 16;
    size_t rank = 0;
    size_t col = 0;
    std::vector<uint64_t> table;
    while (col < cols_ && rank < rows_ && !cancel.cancelled()) {
        // --- find up to k pivots starting at (rank, col) -----------------
        // Pivot rows are swapped up to rows rank..rank+k'-1 and kept in
        // RREF among themselves; candidate bits below are evaluated
        // against the block on the fly (no row writes until a pivot hits).
        std::vector<size_t> pcols;
        size_t c = col;
        while (c < cols_ && pcols.size() < k && rank + pcols.size() < rows_) {
            size_t found = SIZE_MAX;
            for (size_t r = rank + pcols.size(); r < rows_; ++r) {
                bool bit = get(r, c);
                for (size_t i = 0; i < pcols.size(); ++i) {
                    if (get(r, pcols[i])) bit ^= get(rank + i, c);
                }
                if (bit) {
                    found = r;
                    break;
                }
            }
            if (found == SIZE_MAX) {
                ++c;
                continue;
            }
            for (size_t i = 0; i < pcols.size(); ++i) {
                if (get(found, pcols[i])) xor_row(found, rank + i);
            }
            swap_rows(found, rank + pcols.size());
            for (size_t i = 0; i < pcols.size(); ++i) {
                if (get(rank + i, c)) xor_row(rank + i, rank + pcols.size());
            }
            pcols.push_back(c);
            ++c;
        }
        if (pcols.empty()) break;  // remaining rows are zero
        const size_t kk = pcols.size();

        // --- table of all 2^kk combinations of the pivot rows ------------
        table.assign((size_t{1} << kk) * words_per_row_, 0);
        for (uint32_t idx = 1; idx < (1u << kk); ++idx) {
            const uint32_t low = idx & (idx - 1);
            const int i = std::countr_zero(idx ^ low);
            uint64_t* dst = table.data() + size_t{idx} * words_per_row_;
            const uint64_t* src = table.data() + size_t{low} * words_per_row_;
            const uint64_t* prow = row_ptr(rank + static_cast<size_t>(i));
            for (size_t w = 0; w < words_per_row_; ++w)
                dst[w] = src[w] ^ prow[w];
        }

        // --- clear the pivot columns from every other row ----------------
        for (size_t r = 0; r < rows_; ++r) {
            if (r >= rank && r < rank + kk) continue;
            uint32_t idx = 0;
            for (size_t i = 0; i < kk; ++i)
                idx |= static_cast<uint32_t>(get(r, pcols[i])) << i;
            if (idx == 0) continue;
            const uint64_t* src = table.data() + size_t{idx} * words_per_row_;
            uint64_t* dst = row_ptr(r);
            for (size_t w = 0; w < words_per_row_; ++w) dst[w] ^= src[w];
        }
        rank += kk;
        col = pcols.back() + 1;
    }
    return rank;
}

size_t Matrix::row_echelon() {
    size_t rank = 0;
    for (size_t col = 0; col < cols_ && rank < rows_; ++col) {
        size_t pivot = rows_;
        for (size_t r = rank; r < rows_; ++r) {
            if (get(r, col)) { pivot = r; break; }
        }
        if (pivot == rows_) continue;
        swap_rows(rank, pivot);
        for (size_t r = rank + 1; r < rows_; ++r) {
            if (get(r, col)) xor_row(r, rank);
        }
        ++rank;
    }
    return rank;
}

std::vector<std::vector<bool>> Matrix::nullspace() {
    std::vector<size_t> pivots;
    const size_t rank = rref(&pivots);

    // Mark pivot columns; the rest are free.
    std::vector<long> pivot_row_of_col(cols_, -1);
    for (size_t i = 0; i < rank; ++i) pivot_row_of_col[pivots[i]] = (long)i;

    std::vector<std::vector<bool>> basis;
    for (size_t free_col = 0; free_col < cols_; ++free_col) {
        if (pivot_row_of_col[free_col] >= 0) continue;
        std::vector<bool> v(cols_, false);
        v[free_col] = true;
        // Each pivot variable equals the sum of the free variables appearing
        // in its (fully reduced) row.
        for (size_t i = 0; i < rank; ++i) {
            if (get(i, free_col)) v[pivots[i]] = true;
        }
        basis.push_back(std::move(v));
    }
    return basis;
}

Matrix Matrix::multiply(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        uint64_t* dst = c.row_ptr(i);
        for (size_t k = 0; k < a.cols(); ++k) {
            if (!a.get(i, k)) continue;
            const uint64_t* src = b.row_ptr(k);
            for (size_t w = 0; w < c.words_per_row_; ++w) dst[w] ^= src[w];
        }
    }
    return c;
}

Matrix Matrix::identity(size_t n) {
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i) m.set(i, i, true);
    return m;
}

Matrix Matrix::random(size_t rows, size_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (rng.coin()) m.set(r, c, true);
    return m;
}

}  // namespace bosphorus::gf2
