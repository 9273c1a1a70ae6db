#include "crypto/aes_small.h"

#include <array>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "anf/monomial_store.h"

namespace bosphorus::crypto {

using anf::Monomial;
using anf::Polynomial;
using anf::Var;

SmallScaleAes::SmallScaleAes(Params p) : p_(p), field_(p.e) {
    if (p_.rows != 1 && p_.rows != 2 && p_.rows != 4)
        throw std::invalid_argument("SmallScaleAes: rows must be 1, 2 or 4");
    if (p_.cols < 1 || p_.cols > 4)
        throw std::invalid_argument("SmallScaleAes: cols must be in [1,4]");
    if (p_.e != 4 && p_.e != 8)
        throw std::invalid_argument("SmallScaleAes: e must be 4 or 8");

    // S-box: patched inverse followed by an invertible circulant affine map.
    // e = 8 uses the genuine AES affine (rotations {0,4,5,6,7}, constant
    // 0x63); e = 4 uses rotations {0,1,2} with constant 0x6 (the circulant
    // polynomial 1+x+x^2 is coprime to x^4+1, hence invertible).
    const std::vector<unsigned> rots =
        p_.e == 8 ? std::vector<unsigned>{0, 4, 5, 6, 7}
                  : std::vector<unsigned>{0, 1, 2};
    const uint8_t affine_const = p_.e == 8 ? 0x63 : 0x6;
    const unsigned mask = (1u << p_.e) - 1;
    sbox_.resize(1u << p_.e);
    for (unsigned x = 0; x < sbox_.size(); ++x) {
        const unsigned v = field_.inv(static_cast<uint8_t>(x));
        // AES affine: b'_i = XOR over rot of b_{(i + rot) mod e}, i.e. the
        // inverse rotated *right* by rot.
        unsigned acc = 0;
        for (unsigned rot : rots)
            acc ^= ((v >> rot) | (v << (p_.e - rot))) & mask;
        sbox_[x] = static_cast<uint8_t>(acc ^ affine_const);
    }

    // MixColumns matrices (MDS over GF(2^e)); rows = 1 is the identity.
    switch (p_.rows) {
        case 1: mix_ = {{1}}; break;
        case 2: mix_ = {{3, 2}, {2, 3}}; break;
        case 4:
            mix_ = {{2, 3, 1, 1}, {1, 2, 3, 1}, {1, 1, 2, 3}, {3, 1, 1, 2}};
            break;
        default: break;
    }

    sbox_eqs_ = sbox_quadratics(sbox_, p_.e);
    assert(verify_quadratics(sbox_, p_.e, sbox_eqs_));
    // encode() interns template monomials from a 2-slot array.
    for (const auto& eq : sbox_eqs_)
        for (const auto& mono : eq)
            if (mono.size() > 2)
                throw std::logic_error("SmallScaleAes: S-box template "
                                       "monomial above degree 2");
}

std::vector<uint8_t> SmallScaleAes::expand_key(
    const std::vector<uint8_t>& key, unsigned round) const {
    // Returns K_round; round 0 is the master key.
    const unsigned r = p_.rows, c = p_.cols;
    std::vector<uint8_t> k = key;
    for (unsigned i = 1; i <= round; ++i) {
        std::vector<uint8_t> next(k.size());
        // Rotated, S-boxed last column.
        std::vector<uint8_t> s(r);
        for (unsigned j = 0; j < r; ++j)
            s[j] = sbox_[k[(c - 1) * r + (j + 1) % r]];
        const uint8_t rc = field_.pow(2, i - 1);
        for (unsigned j = 0; j < r; ++j)
            next[j] = k[j] ^ s[j] ^ (j == 0 ? rc : 0);
        for (unsigned q = 1; q < c; ++q)
            for (unsigned j = 0; j < r; ++j)
                next[q * r + j] = k[q * r + j] ^ next[(q - 1) * r + j];
        k = std::move(next);
    }
    return k;
}

std::vector<uint8_t> SmallScaleAes::encrypt(
    const std::vector<uint8_t>& plaintext,
    const std::vector<uint8_t>& key) const {
    const unsigned r = p_.rows, c = p_.cols;
    assert(plaintext.size() == num_words() && key.size() == num_words());

    std::vector<uint8_t> state(num_words());
    for (size_t i = 0; i < state.size(); ++i) state[i] = plaintext[i] ^ key[i];

    for (unsigned round = 1; round <= p_.rounds; ++round) {
        // SubBytes.
        for (auto& w : state) w = sbox_[w];
        // ShiftRows: row j rotated left by j.
        std::vector<uint8_t> shifted(state.size());
        for (unsigned col = 0; col < c; ++col)
            for (unsigned row = 0; row < r; ++row)
                shifted[col * r + row] = state[((col + row) % c) * r + row];
        // MixColumns.
        std::vector<uint8_t> mixed(state.size());
        for (unsigned col = 0; col < c; ++col)
            for (unsigned row = 0; row < r; ++row) {
                uint8_t acc = 0;
                for (unsigned l = 0; l < r; ++l)
                    acc ^= field_.mul(static_cast<uint8_t>(mix_[row][l]),
                                      shifted[col * r + l]);
                mixed[col * r + row] = acc;
            }
        // AddRoundKey.
        const std::vector<uint8_t> rk = expand_key(key, round);
        for (size_t i = 0; i < state.size(); ++i) state[i] = mixed[i] ^ rk[i];
    }
    return state;
}

SmallScaleAes::Instance SmallScaleAes::encode(
    const std::vector<uint8_t>& plaintext,
    const std::vector<uint8_t>& key) const {
    const unsigned r = p_.rows, c = p_.cols, e = p_.e, n = p_.rounds;
    const unsigned nw = r * c;

    Instance inst;
    inst.plaintext = plaintext;
    inst.key = key;

    // ---- simulate, capturing all intermediates -------------------------
    std::vector<std::vector<uint8_t>> round_keys(n + 1);
    std::vector<std::vector<uint8_t>> ks_sbox(n + 1);  // round 1..n: r words
    round_keys[0] = key;
    for (unsigned i = 1; i <= n; ++i) {
        const auto& k = round_keys[i - 1];
        std::vector<uint8_t> s(r);
        for (unsigned j = 0; j < r; ++j)
            s[j] = sbox_[k[(c - 1) * r + (j + 1) % r]];
        ks_sbox[i] = s;
        round_keys[i] = expand_key(key, i);
    }

    std::vector<std::vector<uint8_t>> w_state(n + 1), x_state(n + 1);
    {
        std::vector<uint8_t> state(nw);
        for (unsigned i = 0; i < nw; ++i) state[i] = plaintext[i] ^ key[i];
        for (unsigned round = 1; round <= n; ++round) {
            w_state[round] = state;
            std::vector<uint8_t> x(nw);
            for (unsigned i = 0; i < nw; ++i) x[i] = sbox_[state[i]];
            x_state[round] = x;
            std::vector<uint8_t> shifted(nw);
            for (unsigned col = 0; col < c; ++col)
                for (unsigned row = 0; row < r; ++row)
                    shifted[col * r + row] = x[((col + row) % c) * r + row];
            std::vector<uint8_t> mixed(nw);
            for (unsigned col = 0; col < c; ++col)
                for (unsigned row = 0; row < r; ++row) {
                    uint8_t acc = 0;
                    for (unsigned l = 0; l < r; ++l)
                        acc ^= field_.mul(static_cast<uint8_t>(mix_[row][l]),
                                          shifted[col * r + l]);
                    mixed[col * r + row] = acc;
                }
            for (unsigned i = 0; i < nw; ++i)
                state[i] = mixed[i] ^ round_keys[round][i];
        }
        inst.ciphertext = state;
    }

    // ---- allocate variables + witness ----------------------------------
    auto alloc_words = [&](const std::vector<uint8_t>& words) {
        const size_t base = inst.num_vars;
        inst.num_vars += words.size() * e;
        for (uint8_t w : words)
            for (unsigned b = 0; b < e; ++b)
                inst.witness.push_back((w >> b) & 1);
        return base;
    };

    const size_t k0_base = alloc_words(round_keys[0]);
    std::vector<size_t> s_base(n + 1), k_base(n + 1), w_base(n + 1),
        x_base(n + 1);
    k_base[0] = k0_base;
    for (unsigned i = 1; i <= n; ++i) {
        s_base[i] = alloc_words(ks_sbox[i]);
        k_base[i] = alloc_words(round_keys[i]);
        w_base[i] = alloc_words(w_state[i]);
        x_base[i] = alloc_words(x_state[i]);
    }

    auto bit_var = [&](size_t base, unsigned word, unsigned b) {
        return static_cast<Var>(base + word * e + b);
    };
    auto bit_poly = [&](size_t base, unsigned word, unsigned b) {
        return Polynomial::variable(bit_var(base, word, b));
    };

    // Instantiate the implicit S-box quadratics over input/output words.
    // Template monomials have degree <= 2 (checked at construction), so
    // each is sorted in a 2-slot array and interned without a heap list.
    anf::MonomialStore& store = anf::MonomialStore::global();
    auto emit_sbox = [&](size_t in_base, unsigned in_word, size_t out_base,
                         unsigned out_word) {
        for (const auto& eq : sbox_eqs_) {
            std::vector<Monomial> monos;
            monos.reserve(eq.size());
            for (const auto& mono : eq) {
                std::array<Var, 2> vars{};
                uint32_t n = 0;
                for (const TemplateBit& tb : mono) {
                    vars[n++] = tb.side == 0
                                    ? bit_var(in_base, in_word, tb.bit)
                                    : bit_var(out_base, out_word, tb.bit);
                }
                if (n == 2 && vars[1] < vars[0]) std::swap(vars[0], vars[1]);
                if (n == 2 && vars[0] == vars[1]) n = 1;
                monos.push_back(
                    Monomial::from_id(store.intern_sorted(vars.data(), n)));
            }
            inst.polys.emplace_back(std::move(monos));
        }
    };

    // Bit expression of MC(SR(x_round)) at (row, col, bit): a linear form
    // over the x-state variables.
    // Precompute mul-by-constant bit matrices for the MixColumns entries.
    std::vector<std::vector<uint8_t>> mulmat(1u << e);
    for (const auto& row : mix_)
        for (uint8_t entry : row)
            if (mulmat[entry].empty())
                mulmat[entry] = field_.mul_by_const_matrix(entry);

    auto linear_layer_bit = [&](unsigned round, unsigned row, unsigned col,
                                unsigned b) {
        std::vector<Monomial> monos;
        for (unsigned l = 0; l < r; ++l) {
            const unsigned src_word = ((col + l) % c) * r + l;  // ShiftRows
            const uint8_t contrib = mulmat[mix_[row][l]][b];
            for (unsigned bb = 0; bb < e; ++bb) {
                if ((contrib >> bb) & 1)
                    monos.emplace_back(bit_var(x_base[round], src_word, bb));
            }
        }
        return Polynomial(std::move(monos));
    };

    // ---- equations -------------------------------------------------------
    // (1) w_1 = P + k0.
    for (unsigned word = 0; word < nw; ++word) {
        for (unsigned b = 0; b < e; ++b) {
            Polynomial p = bit_poly(w_base[1], word, b) +
                           bit_poly(k0_base, word, b);
            if ((plaintext[word] >> b) & 1) p += Polynomial::constant(true);
            inst.polys.push_back(std::move(p));
        }
    }
    for (unsigned round = 1; round <= n; ++round) {
        // (2) x_round = S(w_round), word-wise.
        for (unsigned word = 0; word < nw; ++word)
            emit_sbox(w_base[round], word, x_base[round], word);

        // (3) key schedule: s_round = S(rot(last column of k_{round-1})),
        //     then k_round linear in k_{round-1} and s_round.
        for (unsigned j = 0; j < r; ++j) {
            const unsigned src_word = (c - 1) * r + (j + 1) % r;
            emit_sbox(k_base[round - 1], src_word, s_base[round], j);
        }
        const uint8_t rc = field_.pow(2, round - 1);
        for (unsigned j = 0; j < r; ++j) {
            for (unsigned b = 0; b < e; ++b) {
                Polynomial p = bit_poly(k_base[round], j, b) +
                               bit_poly(k_base[round - 1], j, b) +
                               bit_poly(s_base[round], j, b);
                if (j == 0 && ((rc >> b) & 1))
                    p += Polynomial::constant(true);
                inst.polys.push_back(std::move(p));
            }
        }
        for (unsigned q = 1; q < c; ++q)
            for (unsigned j = 0; j < r; ++j)
                for (unsigned b = 0; b < e; ++b) {
                    inst.polys.push_back(
                        bit_poly(k_base[round], q * r + j, b) +
                        bit_poly(k_base[round - 1], q * r + j, b) +
                        bit_poly(k_base[round], (q - 1) * r + j, b));
                }

        // (4) linear layer: MC(SR(x_round)) + k_round equals the next
        //     S-box input (or the ciphertext after the last round).
        for (unsigned col = 0; col < c; ++col)
            for (unsigned row = 0; row < r; ++row)
                for (unsigned b = 0; b < e; ++b) {
                    Polynomial p = linear_layer_bit(round, row, col, b) +
                                   bit_poly(k_base[round], col * r + row, b);
                    if (round < n) {
                        p += bit_poly(w_base[round + 1], col * r + row, b);
                    } else if ((inst.ciphertext[col * r + row] >> b) & 1) {
                        p += Polynomial::constant(true);
                    }
                    inst.polys.push_back(std::move(p));
                }
    }
    return inst;
}

SmallScaleAes::Instance SmallScaleAes::random_instance(Rng& rng) const {
    std::vector<uint8_t> p(num_words()), k(num_words());
    const unsigned mask = (1u << p_.e) - 1;
    for (auto& w : p) w = static_cast<uint8_t>(rng.next() & mask);
    for (auto& w : k) w = static_cast<uint8_t>(rng.next() & mask);
    return encode(p, k);
}

}  // namespace bosphorus::crypto
