#include "anf/monomial_store.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bosphorus::anf {

namespace {

// Per-thread direct-mapped front cache for mul(): answers repeat products
// without touching the store mutex. Keyed by the store's process-unique
// serial (an address would be reusable by a later store, letting a stale
// slot answer for ids the new store never interned). Within one store's
// lifetime only a released Scope reuses ids, and only its owner thread can
// hold slots naming them: any other thread that interned, or took a
// product from the shared memo, while the scope was open tainted it. So
// the release clears the owner's slots and no other thread's.
struct MulCacheSlot {
    uint64_t serial = 0;  // 0 = empty (live serials start at 1)
    MonoId a = 0, b = 0, r = 0;
};
constexpr size_t kMulCacheBits = 13;
thread_local MulCacheSlot tl_mul_cache[1u << kMulCacheBits];

size_t mul_cache_slot(uint64_t serial, MonoId a, MonoId b) {
    uint64_t h = (uint64_t{a} << 32) | b;
    h ^= serial * 0xD1B54A32D192ED03ULL;
    h *= 0x9E3779B97F4A7C15ULL;
    return (h >> 48) & ((1u << kMulCacheBits) - 1);
}

std::atomic<uint64_t> next_store_serial{1};

// Home slot of a 64-bit key (a content hash, or a product's id pair) in a
// power-of-two table: the high half of a Fibonacci multiply, so every bit
// of the key reaches the slot.
size_t home_slot(uint64_t h, size_t mask) {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
}

}  // namespace

MonomialStore::MonomialStore()
    : serial_(next_store_serial.fetch_add(1, std::memory_order_relaxed)) {
    blocks_.resize(kMaxBlocks, nullptr);
    index_.assign(kIndexInitialSlots, 0);
    mul_memo_ = std::make_unique<MemoSlot[]>(kMulMemoSlots);
    std::lock_guard<std::mutex> lk(mu_);
    const MonoId one = intern_sorted_locked(nullptr, 0);
    (void)one;
    assert(one == kMonoOne);
}

MonomialStore::~MonomialStore() {
    for (Entry* b : blocks_) delete[] b;
}

MonomialStore& MonomialStore::global() {
    static MonomialStore* store = new MonomialStore();  // never destroyed
    return *store;
}

uint64_t MonomialStore::hash_vars(const Var* vars, uint32_t n) {
    // The exact chain of the pre-interning Monomial::hash().
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (uint32_t i = 0; i < n; ++i) h = (h ^ vars[i]) * 0x100000001B3ULL;
    return h;
}

size_t MonomialStore::index_find(uint64_t h, const Var* vars,
                                uint32_t n) const {
    const size_t mask = index_.size() - 1;
    for (size_t i = home_slot(h, mask);; i = (i + 1) & mask) {
        const uint32_t slot = index_[i];
        if (slot == 0) return i;
        const Entry& e = entry(slot - 1);
        if (e.hash == h && e.len == n && std::equal(vars, vars + n, e.vars))
            return i;
    }
}

void MonomialStore::grow_index() {
    std::vector<uint32_t> grown(index_.size() * 2, 0);
    const size_t mask = grown.size() - 1;
    const uint32_t n = count_.load(std::memory_order_relaxed);
    for (uint32_t id = 0; id < n; ++id) {
        size_t i = home_slot(entry(id).hash, mask);
        while (grown[i] != 0) i = (i + 1) & mask;
        grown[i] = id + 1;
    }
    index_.swap(grown);
}

MonoId MonomialStore::intern_sorted_locked(const Var* vars, uint32_t n) {
    note_caller_locked();
    const uint64_t h = hash_vars(vars, n);
    size_t slot = index_find(h, vars, n);
    if (index_[slot] != 0) return index_[slot] - 1;

    // Fresh monomial. A throw from here on (id space exhausted, or
    // bad_alloc) leaves the store consistent: nothing is reachable until
    // the index slot and count_ are written at the end.
    const uint32_t id = count_.load(std::memory_order_relaxed);
    const uint32_t block = id >> kBlockBits;
    if (block >= kMaxBlocks)
        throw std::length_error("monomial store id space exhausted");
    if (2 * (size_t{id} + 1) > index_.size()) {
        grow_index();
        slot = index_find(h, vars, n);
    }
    if (blocks_[block] == nullptr) blocks_[block] = new Entry[kBlockSize];

    // Copy the variable list into the arena...
    const Var* stored = nullptr;
    if (n > 0) {
        if (n > kArenaChunk - arena_used_) {
            const size_t chunk = std::max<size_t>(kArenaChunk, n);
            arena_.push_back(std::make_unique<Var[]>(chunk));
            arena_used_ = 0;
            arena_bytes_ += chunk * sizeof(Var);
        }
        Var* dst = arena_.back().get() + arena_used_;
        std::copy(vars, vars + n, dst);
        arena_used_ += n;
        stored = dst;
    }

    // ...write the entry slot, then publish the id.
    Entry& e = blocks_[block][id & (kBlockSize - 1)];
    e.vars = stored;
    e.len = n;
    e.hash = h;
    index_[slot] = id + 1;
    count_.store(id + 1, std::memory_order_release);
    return id;
}

MonoId MonomialStore::intern_sorted(const Var* vars, uint32_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    return intern_sorted_locked(vars, n);
}

MonoId MonomialStore::intern(std::vector<Var> vars) {
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    return intern_sorted(vars.data(), static_cast<uint32_t>(vars.size()));
}

int MonomialStore::compare(MonoId a, MonoId b) const {
    if (a == b) return 0;
    const Entry& ea = entry(a);
    const Entry& eb = entry(b);
    if (ea.len != eb.len) return ea.len < eb.len ? -1 : 1;
    for (uint32_t i = 0; i < ea.len; ++i) {
        if (ea.vars[i] != eb.vars[i]) return ea.vars[i] < eb.vars[i] ? -1 : 1;
    }
    return 0;
}

bool MonomialStore::contains(MonoId id, Var v) const {
    const Entry& e = entry(id);
    return std::binary_search(e.vars, e.vars + e.len, v);
}

bool MonomialStore::divides(MonoId a, MonoId b) const {
    const Entry& ea = entry(a);
    const Entry& eb = entry(b);
    return std::includes(eb.vars, eb.vars + eb.len, ea.vars,
                         ea.vars + ea.len);
}

MonoId MonomialStore::mul(MonoId a, MonoId b) {
    if (a == kMonoOne) return b;
    if (b == kMonoOne) return a;
    if (a == b) return a;  // idempotent: m * m = m over GF(2)
    if (a > b) std::swap(a, b);  // commutative: canonicalise the key

    MulCacheSlot& slot = tl_mul_cache[mul_cache_slot(serial_, a, b)];
    if (slot.serial == serial_ && slot.a == a && slot.b == b) {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return slot.r;
    }

    const uint64_t key = (uint64_t{a} << 32) | b;
    MemoSlot& memo = mul_memo_[home_slot(key, kMulMemoSlots - 1)];
    MonoId r;
    {
        std::lock_guard<std::mutex> lk(mu_);
        note_caller_locked();
        if (memo.a == a && memo.b == b) {
            memo_hits_.fetch_add(1, std::memory_order_relaxed);
            r = memo.r;
        } else {
            memo_misses_.fetch_add(1, std::memory_order_relaxed);
            const Entry& ea = entry(a);
            const Entry& eb = entry(b);
            scratch_.clear();
            scratch_.reserve(ea.len + eb.len);
            std::set_union(ea.vars, ea.vars + ea.len, eb.vars,
                           eb.vars + eb.len, std::back_inserter(scratch_));
            r = intern_sorted_locked(scratch_.data(),
                                     static_cast<uint32_t>(scratch_.size()));
            if (memo.a == 0) ++mul_memo_used_;
            memo = {a, b, r};
        }
    }
    slot = {serial_, a, b, r};
    return r;
}

MonoId MonomialStore::quotient(MonoId target, MonoId m) {
    if (m == kMonoOne) return target;
    if (m == target) return kMonoOne;
    std::lock_guard<std::mutex> lk(mu_);
    const Entry& et = entry(target);
    const Entry& em = entry(m);
    scratch_.clear();
    scratch_.reserve(et.len);
    std::set_difference(et.vars, et.vars + et.len, em.vars, em.vars + em.len,
                        std::back_inserter(scratch_));
    return intern_sorted_locked(scratch_.data(),
                                static_cast<uint32_t>(scratch_.size()));
}

MonoId MonomialStore::without(MonoId id, Var v) {
    std::lock_guard<std::mutex> lk(mu_);
    const Entry& e = entry(id);
    scratch_.clear();
    scratch_.reserve(e.len > 0 ? e.len - 1 : 0);
    for (uint32_t i = 0; i < e.len; ++i) {
        if (e.vars[i] != v) scratch_.push_back(e.vars[i]);
    }
    return intern_sorted_locked(scratch_.data(),
                                static_cast<uint32_t>(scratch_.size()));
}

MonomialStore::Stats MonomialStore::stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    Stats s;
    s.entries = count_.load(std::memory_order_relaxed);
    s.arena_bytes = arena_bytes_;
    const uint32_t blocks = (s.entries + kBlockSize - 1) >> kBlockBits;
    s.entry_bytes = size_t{blocks} * kBlockSize * sizeof(Entry);
    s.index_bytes = index_.size() * sizeof(uint32_t);
    s.mul_memo_bytes = kMulMemoSlots * sizeof(MemoSlot);
    s.mul_memo_entries = mul_memo_used_;
    s.mul_memo_hits = memo_hits_.load(std::memory_order_relaxed);
    s.mul_memo_misses = memo_misses_.load(std::memory_order_relaxed);
    s.released_ids = released_ids_;
    return s;
}

std::shared_ptr<const std::vector<uint32_t>> MonomialStore::ranks() {
    std::lock_guard<std::mutex> lk(mu_);
    note_caller_locked();
    const uint32_t n = count_.load(std::memory_order_relaxed);
    if (ranks_cache_ && ranks_epoch_ == n) return ranks_cache_;

    std::vector<MonoId> order(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](MonoId a, MonoId b) { return compare(a, b) < 0; });
    auto ranks = std::make_shared<std::vector<uint32_t>>(n);
    for (uint32_t r = 0; r < n; ++r) (*ranks)[order[r]] = r;
    ranks_cache_ = std::move(ranks);
    ranks_epoch_ = n;
    return ranks_cache_;
}

MonomialStore::Scope::Scope(MonomialStore& store) {
    if (store.open_scope()) store_ = &store;
}

MonomialStore::Scope::~Scope() {
    if (store_ != nullptr) store_->close_scope();
}

bool MonomialStore::open_scope() {
    std::lock_guard<std::mutex> lk(mu_);
    if (scope_open_) return false;
    scope_open_ = true;
    scope_tainted_ = false;
    scope_owner_ = std::this_thread::get_id();
    scope_mark_ = count_.load(std::memory_order_relaxed);
    scope_arena_chunks_ = arena_.size();
    scope_arena_used_ = arena_used_;
    scope_arena_bytes_ = arena_bytes_;
    return true;
}

void MonomialStore::close_scope() {
    std::lock_guard<std::mutex> lk(mu_);
    assert(scope_open_ && scope_owner_ == std::this_thread::get_id());
    if (!scope_tainted_) release_locked();
    scope_open_ = false;
}

void MonomialStore::release_locked() {
    const uint32_t mark = scope_mark_;
    const uint32_t n = count_.load(std::memory_order_relaxed);
    if (n == mark) return;

    // Index: linear probing without deletions is undone exactly by
    // removing keys last-in-first-out, and grow_index() re-inserts in id
    // order, so clearing the released ids newest first leaves the table
    // as if they had never been inserted.
    const size_t mask = index_.size() - 1;
    for (uint32_t id = n; id-- > mark;) {
        size_t i = home_slot(entry(id).hash, mask);
        while (index_[i] != id + 1) i = (i + 1) & mask;
        index_[i] = 0;
    }

    // Products naming a released id (a < b in every slot).
    for (size_t i = 0; i < kMulMemoSlots; ++i) {
        MemoSlot& m = mul_memo_[i];
        if (m.a != 0 && (m.b >= mark || m.r >= mark)) {
            m = MemoSlot{};
            --mul_memo_used_;
        }
    }
    for (MulCacheSlot& c : tl_mul_cache) {
        if (c.serial == serial_ && (c.b >= mark || c.r >= mark)) c.serial = 0;
    }

    // The cache's epoch is an entry count, which later interning reaches
    // again with different content.
    ranks_cache_.reset();

    // Storage wholly above the mark: arena chunks opened inside the scope
    // and entry blocks holding no surviving id.
    arena_.resize(scope_arena_chunks_);
    arena_used_ = scope_arena_used_;
    arena_bytes_ = scope_arena_bytes_;
    const uint32_t last_block = (n - 1) >> kBlockBits;
    for (uint32_t b = (mark + kBlockSize - 1) >> kBlockBits; b <= last_block;
         ++b) {
        delete[] blocks_[b];
        blocks_[b] = nullptr;
    }

    released_ids_ += n - mark;
    count_.store(mark, std::memory_order_release);
}

}  // namespace bosphorus::anf
