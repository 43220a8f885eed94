#include "common/rng.hh"

#include "common/bitutil.hh"

namespace sac {

Rng::Rng(std::uint64_t seed, std::uint64_t salt)
{
    // SplitMix64 expansion of (seed, salt) into the 256-bit state; a
    // zero state would be absorbing, and mix64 never yields four zeros
    // from distinct inputs.
    std::uint64_t x = mix64(seed) ^ mix64(salt * 0x632be59bd9b4e019ULL + 1);
    for (auto &word : s) {
        x += 0x9e3779b97f4a7c15ULL;
        word = mix64(x);
    }
}

} // namespace sac
