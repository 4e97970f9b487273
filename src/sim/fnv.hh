/**
 * @file
 * FNV-1a 64-bit: the one byte hash behind snapshot checksums, trace
 * scope-name hashes and the scenario runner's combined trace hash.
 */

#ifndef SNAPLE_SIM_FNV_HH
#define SNAPLE_SIM_FNV_HH

#include <cstddef>
#include <cstdint>

namespace snaple::sim {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a over @p n bytes at @p data, continuing from state @p h. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t n, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

} // namespace snaple::sim

#endif // SNAPLE_SIM_FNV_HH
