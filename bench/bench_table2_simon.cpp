// Table II, Simon rows: round-reduced Simon32/64 key recovery in the
// SP/RC setting, classes Simon-[8,6], Simon-[9,7], Simon-[10,8]
// ((n plaintexts, r rounds), 50 instances each in the paper).
//
// Expected shape (paper): [8,6] is easy everywhere and Bosphorus only adds
// overhead; [9,7] is where Bosphorus rescues the weak solver (MiniSat w/o:
// 22/50, w: 50/50); [10,8] is hard for MiniSat even with help.
#include "table2_common.h"

#include "crypto/simon.h"

using namespace bosphorus;
using bench::AnfInstance;
using bench::BenchScale;

int main() {
    const BenchScale scale = BenchScale::from_env(2, 6.0);
    bench::print_header("Table II -- Simon32/64 rows", scale);

    const std::pair<unsigned, unsigned> classes[] = {{8, 6}, {9, 7}, {10, 8}};
    size_t wrong = 0;
    for (const auto& [n, r] : classes) {
        const std::string name =
            "Simon-[" + std::to_string(n) + "," + std::to_string(r) + "]";
        wrong += bench::run_class_row(
            name,
            [&, n = n, r = r](size_t i) {
                const crypto::Simon32 simon(r);
                Rng rng(scale.seed * 1000 + i * 13 + n + r);
                auto inst = simon.encode(n, rng);
                AnfInstance out;
                out.polys = std::move(inst.polys);
                out.num_vars = inst.num_vars;
                return out;
            },
            scale);
    }
    std::printf(
        "\npaper shape: easy [8,6] -> Bosphorus overhead visible; [9,7] -> "
        "Bosphorus turns timeouts into sub-second solves; [10,8] -> hard "
        "for the weak solver even with learning.\n");
    return bench::finish(wrong);
}
