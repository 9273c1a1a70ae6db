#include "gf2/sparse_matrix.h"

#include <algorithm>
#include <bit>

#include "gf2/gf2_matrix.h"

namespace bosphorus::gf2 {

namespace {

using Row = SparseMatrix::Row;

constexpr uint32_t kNone = UINT32_MAX;
constexpr size_t kPollRows = 256;  // rows between two cancellation polls

void flip(std::vector<uint64_t>& bits, uint32_t c) {
    bits[c >> 6] ^= uint64_t{1} << (c & 63);
}

/// Reduce `in` modulo the pivot rows: add it to the (all-zero) accumulator
/// `acc`, then, scanning the columns left to right, add the pivot row of
/// every pivot column that is set. A pivot row leads at its pivot column
/// and has every other entry to its right, so one pass clears them all.
/// The surviving columns go to `out` and `acc` is left zero. With
/// `keep_lead` the first entry of `in` is copied to `out` unreduced.
void reduce_row(const Row& in, bool keep_lead,
                const std::vector<uint64_t>& is_pivot,
                const std::vector<uint32_t>& pivot_of,
                const std::vector<Row>& rows, std::vector<uint64_t>& acc,
                Row& out) {
    out.clear();
    const size_t first = keep_lead ? 1 : 0;
    if (keep_lead && !in.empty()) out.push_back(in.front());
    if (in.size() <= first) return;
    for (size_t i = first; i < in.size(); ++i) flip(acc, in[i]);
    uint32_t hi = in.back();
    for (size_t w = in[first] >> 6; w <= hi >> 6; ++w) {
        while (const uint64_t m = acc[w] & is_pivot[w]) {
            const auto c = static_cast<uint32_t>(w * 64 + std::countr_zero(m));
            const Row& p = rows[pivot_of[c]];
            for (uint32_t x : p) flip(acc, x);
            hi = std::max(hi, p.back());
        }
        for (uint64_t m = acc[w]; m != 0; m &= m - 1)
            out.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(m)));
        acc[w] = 0;
    }
}

}  // namespace

size_t SparseMatrix::rref(bool use_m4r,
                          const runtime::CancellationToken& cancel) {
    auto cancelled = [&] {
        if (!cancel.cancelled()) return false;
        rows_ = {};
        return true;
    };

    // 1. Pivot block: the sparsest row of each distinct leading column.
    std::vector<uint32_t> pivot_of(cols_, kNone);  // column -> row in rows_
    for (size_t r = 0; r < rows_.size(); ++r) {
        if (rows_[r].empty()) continue;
        uint32_t& p = pivot_of[rows_[r].front()];
        if (p == kNone || rows_[r].size() < rows_[p].size())
            p = static_cast<uint32_t>(r);
    }
    std::vector<uint64_t> is_pivot((cols_ + 63) / 64, 0);
    for (size_t c = 0; c < cols_; ++c)
        if (pivot_of[c] != kNone) flip(is_pivot, static_cast<uint32_t>(c));
    if (cancelled()) return 0;

    // 2. Schur block: every other row modulo the pivot block. The reduced
    // rows live on non-pivot columns only; the originals are freed.
    std::vector<uint64_t> acc(is_pivot.size(), 0);
    std::vector<Row> schur;
    Row scratch;
    for (size_t r = 0; r < rows_.size(); ++r) {
        if (r % kPollRows == 0 && cancelled()) return 0;
        if (rows_[r].empty() || pivot_of[rows_[r].front()] == r) continue;
        reduce_row(rows_[r], false, is_pivot, pivot_of, rows_, acc, scratch);
        if (!scratch.empty()) schur.emplace_back(scratch);
        Row().swap(rows_[r]);
    }
    if (cancelled()) return 0;

    // 3. Dense RREF of the Schur block on the columns it uses. Its rows
    // join the pivot rows, already fully reduced.
    const size_t first_schur_row = rows_.size();
    if (!schur.empty()) {
        std::vector<uint32_t> local(cols_, kNone);  // column -> dense column
        for (const Row& row : schur)
            for (uint32_t c : row) local[c] = 0;
        std::vector<uint32_t> used;  // dense column -> column
        for (size_t c = 0; c < cols_; ++c) {
            if (local[c] == kNone) continue;
            local[c] = static_cast<uint32_t>(used.size());
            used.push_back(static_cast<uint32_t>(c));
        }
        Matrix dense(schur.size(), used.size());
        for (size_t i = 0; i < schur.size(); ++i)
            for (uint32_t c : schur[i]) dense.flip(i, local[c]);
        schur = {};
        // Tiny blocks gain nothing from the 2^k table set-up of M4R.
        // Requesting pivot columns pins rref() to plain Gauss-Jordan.
        std::vector<size_t> dense_pivots;
        const size_t rank = use_m4r && dense.rows() >= 16 && dense.cols() >= 16
                                ? dense.rref_m4r(8, cancel)
                                : dense.rref(&dense_pivots);
        if (cancelled()) return 0;
        for (size_t i = 0; i < rank; ++i) {
            Row row = dense.row_ones(i);
            for (uint32_t& c : row) c = used[c];
            pivot_of[row.front()] = static_cast<uint32_t>(rows_.size());
            flip(is_pivot, row.front());
            rows_.push_back(std::move(row));
        }
    }

    // 4. Back-substitution, highest pivot column first: the pivot rows a
    // row is reduced with are fully reduced already, so adding one clears
    // its pivot column and touches non-pivot columns only.
    size_t done = 0;
    for (size_t c = cols_; c-- > 0;) {
        const uint32_t p = pivot_of[c];
        if (p == kNone || p >= first_schur_row) continue;
        if (++done % kPollRows == 0 && cancelled()) return 0;
        reduce_row(rows_[p], true, is_pivot, pivot_of, rows_, acc, scratch);
        rows_[p].assign(scratch.begin(), scratch.end());
    }

    // 5. Emit the rows in pivot order.
    std::vector<Row> reduced;
    for (size_t c = 0; c < cols_; ++c)
        if (pivot_of[c] != kNone) reduced.push_back(std::move(rows_[pivot_of[c]]));
    rows_ = std::move(reduced);
    return rows_.size();
}

}  // namespace bosphorus::gf2
