#include "dvbs2/fec/bch.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>

namespace amp::dvbs2 {

namespace {

[[nodiscard]] int degree_of(const std::vector<std::uint64_t>& poly)
{
    for (int w = static_cast<int>(poly.size()) - 1; w >= 0; --w) {
        if (poly[static_cast<std::size_t>(w)] != 0) {
            const auto word = poly[static_cast<std::size_t>(w)];
            return w * 64 + 63 - std::countl_zero(word);
        }
    }
    return -1;
}

} // namespace

BchCode::BchCode(int m, int t, int n)
    : field_(GaloisField::standard(m))
    , t_(t)
    , n_(n)
    , k_(0)
{
    if (n > field_.order())
        throw std::invalid_argument{"BchCode: n exceeds 2^m - 1"};
    if (t < 1)
        throw std::invalid_argument{"BchCode: t must be >= 1"};

    // g(x) = lcm of the minimal polynomials of alpha^1 .. alpha^(2t):
    // multiply the distinct ones (conjugacy classes share minimal polys).
    std::set<std::uint64_t> factors;
    for (int e = 1; e <= 2 * t; ++e)
        factors.insert(field_.minimal_polynomial(e));

    generator_ = {1};
    generator_degree_ = 0;
    for (const std::uint64_t factor : factors) {
        std::vector<std::uint64_t> factor_bits{factor};
        const int factor_degree = 63 - std::countl_zero(factor);
        generator_ = gf2::poly_mul(generator_, generator_degree_, factor_bits, factor_degree);
        generator_degree_ += factor_degree;
        if (degree_of(generator_) != generator_degree_)
            throw std::logic_error{"BchCode: generator degree mismatch"};
    }

    k_ = n_ - generator_degree_;
    if (k_ <= 0)
        throw std::invalid_argument{"BchCode: n too small for the requested t"};
}

const BchCode& BchCode::dvbs2_short_8_9()
{
    static const BchCode code{14, 12, 14400};
    return code;
}

const BchCode& BchCode::dvbs2_normal_8_9()
{
    static const BchCode code{16, 8, 57600};
    return code;
}

std::vector<std::uint8_t> BchCode::encode(const std::vector<std::uint8_t>& message) const
{
    if (static_cast<int>(message.size()) != k_)
        throw std::invalid_argument{"BchCode::encode: message must have k bits"};

    // Systematic encoding: remainder of x^(n-k) * m(x) divided by g(x),
    // computed with a (n-k)-bit LFSR. Bit j of the message is the
    // coefficient of x^(n-1-j).
    const int r = generator_degree_;
    std::vector<std::uint64_t> reg(static_cast<std::size_t>((r + 63) / 64), 0);
    const int top_word = (r - 1) >> 6;
    const int top_bit = (r - 1) & 63;

    for (int j = 0; j < k_; ++j) {
        const bool feedback =
            (((reg[static_cast<std::size_t>(top_word)] >> top_bit) & 1u) != 0)
            ^ (message[static_cast<std::size_t>(j)] != 0);
        // reg <<= 1 (within r bits)
        for (int w = top_word; w > 0; --w)
            reg[static_cast<std::size_t>(w)] =
                (reg[static_cast<std::size_t>(w)] << 1)
                | (reg[static_cast<std::size_t>(w - 1)] >> 63);
        reg[0] <<= 1;
        if (feedback) {
            // reg ^= g(x) without its x^r term (that term is the feedback).
            for (std::size_t w = 0; w < reg.size(); ++w)
                reg[w] ^= generator_[w];
        }
        // Clear the carry into bit r. When r is a multiple of 64, bit r lies
        // past the register and the shift has already dropped it.
        if (r % 64 != 0)
            gf2::set_bit(reg, r, false);
    }

    std::vector<std::uint8_t> codeword(static_cast<std::size_t>(n_));
    std::copy(message.begin(), message.end(), codeword.begin());
    // Parity bits follow, highest power first: parity bit j corresponds to
    // the coefficient of x^(r-1-j).
    for (int j = 0; j < r; ++j)
        codeword[static_cast<std::size_t>(k_ + j)] =
            gf2::get_bit(reg, r - 1 - j) ? 1 : 0;
    return codeword;
}

BchCode::DecodeResult BchCode::decode(std::vector<std::uint8_t> codeword) const
{
    if (static_cast<int>(codeword.size()) != n_)
        throw std::invalid_argument{"BchCode::decode: codeword must have n bits"};

    DecodeResult result;

    // Syndromes S_j = c(alpha^j), j = 1..2t, with bit i holding the
    // coefficient of x^(n-1-i). Accumulate over set bits only.
    std::vector<int> syndromes(static_cast<std::size_t>(2 * t_), 0);
    bool all_zero = true;
    for (int i = 0; i < n_; ++i) {
        if (codeword[static_cast<std::size_t>(i)] == 0)
            continue;
        const long long power = n_ - 1 - i;
        for (int j = 1; j <= 2 * t_; ++j)
            syndromes[static_cast<std::size_t>(j - 1)] =
                field_.add(syndromes[static_cast<std::size_t>(j - 1)],
                           field_.pow_alpha(power * j));
    }
    for (const int s : syndromes)
        all_zero &= s == 0;

    if (all_zero) {
        result.success = true;
        result.message.assign(codeword.begin(), codeword.begin() + k_);
        return result;
    }

    // Berlekamp-Massey: error-locator polynomial Lambda(x).
    std::vector<int> lambda{1};
    std::vector<int> prev{1};
    int l = 0;
    int shift = 1;
    int prev_discrepancy = 1;
    for (int step = 0; step < 2 * t_; ++step) {
        int discrepancy = syndromes[static_cast<std::size_t>(step)];
        for (int i = 1; i <= l && i < static_cast<int>(lambda.size()); ++i)
            discrepancy = field_.add(
                discrepancy, field_.mul(lambda[static_cast<std::size_t>(i)],
                                        syndromes[static_cast<std::size_t>(step - i)]));
        if (discrepancy == 0) {
            ++shift;
            continue;
        }
        // lambda' = lambda - (d / d_prev) * x^shift * prev
        std::vector<int> updated = lambda;
        const int scale = field_.div(discrepancy, prev_discrepancy);
        if (updated.size() < prev.size() + static_cast<std::size_t>(shift))
            updated.resize(prev.size() + static_cast<std::size_t>(shift), 0);
        for (std::size_t i = 0; i < prev.size(); ++i)
            updated[i + static_cast<std::size_t>(shift)] =
                field_.add(updated[i + static_cast<std::size_t>(shift)],
                           field_.mul(scale, prev[i]));
        if (2 * l <= step) {
            prev = lambda;
            prev_discrepancy = discrepancy;
            l = step + 1 - l;
            shift = 1;
        } else {
            ++shift;
        }
        lambda = std::move(updated);
    }

    while (lambda.size() > 1 && lambda.back() == 0)
        lambda.pop_back();
    const int locator_degree = static_cast<int>(lambda.size()) - 1;
    if (locator_degree > t_ || l > t_) {
        result.message.assign(codeword.begin(), codeword.begin() + k_);
        return result; // uncorrectable
    }

    // Chien search over the n valid positions: an error at bit i (power
    // p = n-1-i) makes alpha^(-p) a root of Lambda.
    std::vector<int> error_positions;
    // Incrementally evaluate Lambda(alpha^(-p)): term_k(p) = l_k alpha^(-pk).
    std::vector<int> terms(lambda.begin(), lambda.end());
    std::vector<int> steps(lambda.size());
    for (std::size_t kk = 0; kk < lambda.size(); ++kk)
        steps[kk] = field_.pow_alpha(-static_cast<long long>(kk));
    for (int p = 0; p < n_; ++p) {
        if (p > 0)
            for (std::size_t kk = 1; kk < terms.size(); ++kk)
                terms[kk] = field_.mul(terms[kk], steps[kk]);
        int value = 0;
        for (const int term : terms)
            value = field_.add(value, term);
        if (value == 0)
            error_positions.push_back(n_ - 1 - p);
    }

    if (static_cast<int>(error_positions.size()) != locator_degree) {
        result.message.assign(codeword.begin(), codeword.begin() + k_);
        return result; // locator degree and root count disagree: > t errors
    }

    for (const int position : error_positions)
        codeword[static_cast<std::size_t>(position)] ^= 1u;
    result.success = true;
    result.corrected = static_cast<int>(error_positions.size());
    result.message.assign(codeword.begin(), codeword.begin() + k_);
    return result;
}

} // namespace amp::dvbs2
