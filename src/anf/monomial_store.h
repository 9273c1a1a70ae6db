// Hash-consed monomial interning -- the term substrate of the whole
// library.
//
// Every distinct monomial (a sorted set of Boolean variables) is interned
// exactly once into a MonomialStore and addressed by a dense 32-bit MonoId
// from then on. Equality is an integer compare, hashing returns a cached
// content hash, degree is a cached byte read, and the product of two
// monomials goes through a memo table -- the same hash-consing discipline
// CDCL solvers apply to clauses, applied to ANF terms. Polynomials become
// sorted vectors of 4-byte ids, so the XL/ElimLin/Groebner hot loops stop
// allocating and re-hashing variable vectors per term.
//
// Memory layout (about 45 bytes per interned monomial): the sorted
// variable list in a chunked arena (4 bytes per variable), a 24-byte Entry
// {vars, len, hash}, and a slot in an open-addressing id index (4-byte
// slots, load at most 1/2). Products are memoised in a fixed
// direct-mapped table of kMulMemoSlots slots allocated with the store, so
// the memo never grows with the vocabulary.
//
// Id invariants:
//  - kMonoOne (0) is always the constant monomial 1.
//  - Ids are assigned in interning order and stay valid, with the same
//    content, for as long as anything can hold them. The store is
//    append-only except for one scratch Scope: a caller that knows
//    nothing interned inside the scope outlives it (bosphorus::solve(),
//    whose SolveOutcome holds no monomial) opens one, and when it closes
//    untouched by any other thread the store truncates back to the count
//    at its start, so those ids are reused by later interning.
//    Snapshot/rewind machinery (AnfSystem, Session push/pop) never opens
//    a scope -- entries interned inside a popped Session scope simply
//    remain as cached, unreferenced vocabulary.
//  - Raw id VALUES are history-dependent (they depend on what was interned
//    first) and must never influence observable output. All ordering goes
//    through less()/compare()/ranks() (deg-lex on content) and all hashing
//    through hash() (content hash, identical to the pre-interning
//    Monomial::hash), so results are bit-identical regardless of store
//    history.
//
// Thread safety: intern/mul/quotient/without/ranks take an internal mutex;
// vars/degree/hash/less/compare/divides are lock-free reads. A lock-free
// read of id X is safe on any thread that obtained X through a
// happens-before edge with the interning thread (same thread, or a handoff
// through a synchronised channel such as the batch runtime's thread pool):
// entry storage is chunked and never moves, and a slot is fully written
// before its id escapes the mutex.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bosphorus::anf {

using Var = uint32_t;
using MonoId = uint32_t;

/// The id of the constant monomial 1 (the empty variable set) in every
/// store.
inline constexpr MonoId kMonoOne = 0;

/// Non-owning view of a monomial's sorted variable list inside the store
/// arena. Cheap to copy; valid as long as its id is (see the id
/// invariants above).
class VarSpan {
public:
    VarSpan() = default;
    VarSpan(const Var* data, uint32_t size) : data_(data), size_(size) {}

    const Var* begin() const { return data_; }
    const Var* end() const { return data_ + size_; }
    const Var* data() const { return data_; }
    uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Var operator[](size_t i) const { return data_[i]; }
    Var front() const { return data_[0]; }
    Var back() const { return data_[size_ - 1]; }

private:
    const Var* data_ = nullptr;
    uint32_t size_ = 0;
};

inline bool operator==(const VarSpan& a, const VarSpan& b) {
    if (a.size() != b.size()) return false;
    for (uint32_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i]) return false;
    return true;
}

inline bool operator==(const VarSpan& a, const std::vector<Var>& b) {
    if (a.size() != b.size()) return false;
    for (uint32_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i]) return false;
    return true;
}
inline bool operator==(const std::vector<Var>& a, const VarSpan& b) {
    return b == a;
}

class MonomialStore {
public:
    MonomialStore();
    ~MonomialStore();

    MonomialStore(const MonomialStore&) = delete;
    MonomialStore& operator=(const MonomialStore&) = delete;

    /// The process-wide store every Monomial resolves against. Constructed
    /// on first use, never destroyed before program exit.
    static MonomialStore& global();

    // ---- interning -------------------------------------------------------

    /// Intern a variable set given in any order, with duplicates (x^2 = x).
    MonoId intern(std::vector<Var> vars);

    /// Intern a canonical (sorted, duplicate-free) variable list.
    MonoId intern_sorted(const Var* vars, uint32_t n);

    /// Intern the single-variable monomial x_v.
    MonoId intern_var(Var v) { return intern_sorted(&v, 1); }

    // ---- lock-free reads -------------------------------------------------

    VarSpan vars(MonoId id) const {
        const Entry& e = entry(id);
        return VarSpan(e.vars, e.len);
    }
    uint32_t degree(MonoId id) const { return entry(id).len; }

    /// Cached content hash, bit-identical to the pre-interning
    /// Monomial::hash() chain -- stable across processes and interning
    /// orders.
    uint64_t hash(MonoId id) const { return entry(id).hash; }

    /// Degree-lexicographic order on content (degree first, then
    /// lexicographic variable lists): the canonical term order everywhere
    /// in the library. O(1) when degrees differ (the cached-degree fast
    /// path), O(shared prefix) otherwise.
    bool less(MonoId a, MonoId b) const { return compare(a, b) < 0; }
    int compare(MonoId a, MonoId b) const;

    bool contains(MonoId id, Var v) const;

    /// True iff a's variable set is a subset of b's (a divides b).
    bool divides(MonoId a, MonoId b) const;

    // ---- algebra (interning writes, mutex-guarded) -----------------------

    /// Product = union of variable sets, answered through a bounded memo
    /// table (plus a per-thread front cache) so repeated products in the
    /// XL expansion / Groebner lcm loops cost a lookup, not a set_union.
    MonoId mul(MonoId a, MonoId b);

    /// The cofactor u with u * m == target. Precondition: m divides target.
    MonoId quotient(MonoId target, MonoId m);

    /// The monomial with variable v removed. Precondition: contains(id, v).
    MonoId without(MonoId id, Var v);

    // ---- bulk ordering ---------------------------------------------------

    /// A dense deg-lex rank table over every id interned so far:
    /// (*ranks())[id] < (*ranks())[id2]  <=>  less(id, id2). Rebuilt (and
    /// cached until the next intern) on demand; the returned snapshot stays
    /// valid and self-consistent even if other threads keep interning, it
    /// just does not cover ids newer than itself. Rank VALUES change as the
    /// vocabulary grows; only their relative order is meaningful.
    std::shared_ptr<const std::vector<uint32_t>> ranks();

    // ---- introspection ---------------------------------------------------

    /// Number of distinct monomials interned so far.
    size_t size() const { return count_.load(std::memory_order_acquire); }

    size_t mul_memo_hits() const { return memo_hits_.load(std::memory_order_relaxed); }
    size_t mul_memo_misses() const { return memo_misses_.load(std::memory_order_relaxed); }

    /// One consistent occupancy snapshot, taken under the store mutex --
    /// the accessor METRICS endpoints and bench tools read instead of
    /// guessing from size() alone. Outside a released Scope the store only
    /// grows: a long-lived process whose work runs in Sessions or
    /// Engine::run (bosphorusd, batches) shares one growing vocabulary and
    /// reclaims nothing. A released Scope truncates the store, so
    /// `entries`, `arena_bytes`, `entry_bytes` and `mul_memo_entries` can
    /// fall; `index_bytes` keeps its high-water capacity, `mul_memo_bytes`
    /// is constant, and `released_ids`, `mul_memo_hits` and
    /// `mul_memo_misses` are monotone. `mul_memo_entries` (occupied slots)
    /// stops at kMulMemoSlots; a colliding product overwrites its slot.
    struct Stats {
        size_t entries = 0;           ///< distinct monomials interned
        size_t arena_bytes = 0;       ///< variable-list arena, allocated
        size_t entry_bytes = 0;       ///< entry blocks, allocated
        size_t index_bytes = 0;       ///< open-addressing id index
        size_t mul_memo_bytes = 0;    ///< fixed product memo table
        size_t mul_memo_entries = 0;  ///< occupied product memo slots
        size_t mul_memo_hits = 0;     ///< memo + front-cache hits
        size_t mul_memo_misses = 0;   ///< products computed the slow way
        size_t released_ids = 0;      ///< ids given back by Scopes, total
    };
    /// Thread-safe: may be called concurrently with interning from any
    /// thread (it serialises briefly with writers on the store mutex).
    Stats stats() const;

    /// Slots in the direct-mapped product memo (12 bytes each).
    static constexpr size_t kMulMemoSlots = size_t{1} << 16;

    // ---- scratch scope ---------------------------------------------------

    /// RAII scratch scope: on entry records the store's size (the mark)
    /// and the calling thread (the owner); on destruction, if no other
    /// thread interned, multiplied through the shared memo or took ranks()
    /// while it was open, truncates the store back to the mark -- ids from
    /// the mark up are reused by later interning. Only for callers whose
    /// every id interned inside the scope dies with it. At most one scope
    /// is open per store: a scope opened while another is open (nested, or
    /// on another thread) is a no-op, and so is one that another thread
    /// touched. Must be destroyed on the thread that created it.
    class Scope {
    public:
        explicit Scope(MonomialStore& store);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// True iff this scope holds the mark (it was not nested).
        bool active() const { return store_ != nullptr; }

    private:
        MonomialStore* store_ = nullptr;  // null: a no-op scope
    };

private:
    struct Entry {
        const Var* vars = nullptr;  // into the arena; never moves
        uint32_t len = 0;           // == degree (variables are distinct)
        uint64_t hash = 0;          // cached content hash
    };

    // Entries live in fixed-size blocks behind a never-resized pointer
    // table, so entry(id) needs no lock: blocks_[] has stable addresses
    // and a block pointer is written (under the mutex) before any id in it
    // escapes.
    static constexpr uint32_t kBlockBits = 13;
    static constexpr uint32_t kBlockSize = 1u << kBlockBits;  // entries/block
    static constexpr uint32_t kMaxBlocks = 1u << 15;  // 2^28 ids max

    const Entry& entry(MonoId id) const {
        return blocks_[id >> kBlockBits][id & (kBlockSize - 1)];
    }

    static uint64_t hash_vars(const Var* vars, uint32_t n);

    /// Shared implementation; requires mu_ held.
    MonoId intern_sorted_locked(const Var* vars, uint32_t n);

    /// The index slot holding the id of (vars, n), or the empty slot where
    /// it belongs; requires mu_ held.
    size_t index_find(uint64_t h, const Var* vars, uint32_t n) const;

    /// Doubles the index, re-inserting every id by its cached hash;
    /// requires mu_ held.
    void grow_index();

    /// Marks an open scope tainted when the caller is not its owner;
    /// requires mu_ held.
    void note_caller_locked() {
        if (scope_open_ && !scope_tainted_ &&
            std::this_thread::get_id() != scope_owner_)
            scope_tainted_ = true;
    }

    /// Scope entry/exit; open_scope() returns false when one is open.
    bool open_scope();
    void close_scope();

    /// Truncates the store to scope_mark_; requires mu_ held and the
    /// owner thread calling.
    void release_locked();

    mutable std::mutex mu_;

    // Process-unique serial (never reused, unlike addresses): keys the
    // per-thread mul front cache so a slot written by a destroyed store
    // can never satisfy a lookup for a newer one.
    const uint64_t serial_;

    // Arena for variable lists: chunked, stable addresses; a released
    // Scope frees the chunks opened inside it.
    static constexpr size_t kArenaChunk = 1u << 16;  // Vars per chunk
    std::vector<std::unique_ptr<Var[]>> arena_;
    size_t arena_used_ = kArenaChunk;  // forces a chunk on first intern
    size_t arena_bytes_ = 0;           // total allocated, under mu_

    std::vector<Entry*> blocks_;          // size kMaxBlocks, lazily filled
    std::atomic<uint32_t> count_{0};      // published entry count

    // Content -> id, under mu_: open addressing with linear probing from
    // the cached content hash. A slot holds id + 1 (0 = empty); the
    // power-of-two capacity doubles at load 1/2.
    static constexpr size_t kIndexInitialSlots = 1u << 10;
    std::vector<uint32_t> index_;

    // Product memo, under mu_: direct-mapped on the canonical (a < b) id
    // pair; a colliding product overwrites the slot. a == 0 marks an
    // empty slot (mul() never memoises a product with the unit).
    struct MemoSlot {
        MonoId a = 0, b = 0, r = 0;
    };
    std::unique_ptr<MemoSlot[]> mul_memo_;
    size_t mul_memo_used_ = 0;  // occupied slots; never decreases
    std::atomic<size_t> memo_hits_{0};
    std::atomic<size_t> memo_misses_{0};

    // deg-lex rank snapshot, rebuilt when stale, under mu_.
    std::shared_ptr<const std::vector<uint32_t>> ranks_cache_;
    uint32_t ranks_epoch_ = 0;  // count_ value the cache was built at

    std::vector<Var> scratch_;  // union/difference buffer, under mu_

    // The scratch scope, under mu_: the mark is count_, the arena's chunk
    // count, offset and bytes at scope entry.
    bool scope_open_ = false;
    bool scope_tainted_ = false;
    std::thread::id scope_owner_;
    uint32_t scope_mark_ = 0;
    size_t scope_arena_chunks_ = 0;
    size_t scope_arena_used_ = 0;
    size_t scope_arena_bytes_ = 0;
    size_t released_ids_ = 0;  // monotone
};

}  // namespace bosphorus::anf
