// Table II, Bitcoin rows: weakened Bitcoin nonce finding, classes
// Bitcoin-[10], Bitcoin-[15], Bitcoin-[20] (k leading zero bits of a
// (round-reduced) SHA-256 digest; 50 instances each in the paper).
//
// Laptop scaling: the compression runs BENCH_SHA_ROUNDS rounds (default 16;
// the paper runs all 64 -- set BENCH_SHA_ROUNDS=64 to match, with a larger
// BENCH_TIMEOUT). Expected shape (paper): Bosphorus does NOT help here --
// its overhead is visible at k = 10/15 and washes out at k = 20.
#include "table2_common.h"

#include "crypto/sha256.h"

using namespace bosphorus;
using bench::AnfInstance;
using bench::BenchScale;

int main() {
    const BenchScale scale = BenchScale::from_env(2, 6.0);
    unsigned rounds = 16;
    if (const char* v = std::getenv("BENCH_SHA_ROUNDS"))
        rounds = std::strtoul(v, nullptr, 10);

    bench::print_header("Table II -- Bitcoin nonce-finding rows", scale);
    std::printf("SHA-256 rounds: %u (paper: 64)\n", rounds);

    size_t wrong = 0;
    for (const unsigned k : {10u, 15u, 20u}) {
        const std::string name = "Bitcoin-[" + std::to_string(k) + "]";
        wrong += bench::run_class_row(
            name,
            [&, k](size_t i) {
                Rng rng(scale.seed * 31 + i * 7 + k);
                auto inst = crypto::encode_bitcoin_nonce(k, rounds, rng);
                AnfInstance out;
                out.polys = std::move(inst.polys);
                out.num_vars = inst.num_vars;
                out.known_sat = inst.has_witness;
                return out;
            },
            scale);
    }
    std::printf(
        "\npaper shape: plain solving wins at k = 10/15 (Bosphorus "
        "overhead, PAR-2 4->23 and 146->171); at k = 20 the overhead "
        "diminishes relative to instance hardness.\n");
    return bench::finish(wrong);
}
