#include "dvbs2/modcod.hpp"

#include "common/rng.hpp"

#include <gtest/gtest.h>

namespace {

using namespace amp::dvbs2;

TEST(ModCod, RegistryIsConsistent)
{
    const auto& modcods = supported_modcods();
    ASSERT_GE(modcods.size(), 4u);
    for (const auto& modcod : modcods) {
        ASSERT_NE(modcod.bch, nullptr) << modcod.name;
        ASSERT_NE(modcod.ldpc, nullptr) << modcod.name;
        EXPECT_EQ(modcod.bch->n(), modcod.ldpc->k())
            << modcod.name << ": BCH codewords must fill the LDPC info part";
        EXPECT_EQ(modcod.n_ldpc() % bits_per_symbol(modcod.modulation), 0) << modcod.name;
        EXPECT_GT(modcod.efficiency(), 0.0);
    }
}

TEST(ModCod, PaperConfigurationIsFirst)
{
    const auto& paper = supported_modcods().front();
    EXPECT_EQ(paper.name, "qpsk-8/9-short");
    EXPECT_EQ(paper.k_bch(), 14232);
    EXPECT_EQ(paper.n_ldpc(), 16200);
    EXPECT_EQ(paper.symbols_per_frame(), 8100);
    EXPECT_NEAR(paper.efficiency(), 14232.0 / 8100.0, 1e-9);
}

TEST(ModCod, NormalFramesAreSupported)
{
    const auto& normal = modcod_by_name("qpsk-8/9-normal");
    EXPECT_EQ(normal.n_ldpc(), 64800);
    EXPECT_EQ(normal.k_bch(), 57472);
    EXPECT_EQ(normal.bch->t(), 8);
}

TEST(ModCod, HigherOrderModulationsPackMoreBits)
{
    const auto& qpsk = modcod_by_name("qpsk-8/9-short");
    const auto& psk8 = modcod_by_name("8psk-8/9-short");
    const auto& apsk = modcod_by_name("16apsk-8/9-short");
    EXPECT_GT(psk8.efficiency(), qpsk.efficiency());
    EXPECT_GT(apsk.efficiency(), psk8.efficiency());
    EXPECT_THROW((void)modcod_by_name("256qam"), std::invalid_argument);
}

TEST(ModCod, NormalFrameFecRoundTrip)
{
    // End-to-end through the normal-frame BCH + LDPC cascade.
    amp::Rng rng{4};
    const auto& modcod = modcod_by_name("qpsk-8/9-normal");
    std::vector<std::uint8_t> message(static_cast<std::size_t>(modcod.k_bch()));
    for (auto& b : message)
        b = static_cast<std::uint8_t>(rng() & 1u);
    const auto bch_word = modcod.bch->encode(message);
    const auto ldpc_word = modcod.ldpc->encode(bch_word);
    ASSERT_TRUE(modcod.ldpc->check(ldpc_word));

    std::vector<float> llr(ldpc_word.size());
    for (std::size_t i = 0; i < ldpc_word.size(); ++i) {
        const float symbol = ldpc_word[i] ? -1.0F : 1.0F;
        llr[i] = 2.0F * (symbol + 0.42F * static_cast<float>(rng.normal())) / 0.18F;
    }
    const auto ldpc_result = modcod.ldpc->decode(llr);
    ASSERT_TRUE(ldpc_result.success);
    std::vector<std::uint8_t> inner(ldpc_result.bits.begin(),
                                    ldpc_result.bits.begin() + modcod.ldpc->k());
    const auto bch_result = modcod.bch->decode(std::move(inner));
    ASSERT_TRUE(bch_result.success);
    EXPECT_EQ(bch_result.message, message);
}

} // namespace
