/**
 * @file
 * Set-associative LRU cache implementation.
 */

#include "uarch/cache.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace rhmd::uarch
{

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    // Lines of at least 2 bytes keep every line number and tag below
    // 2^63, so neither can collide with the kEmpty sentinel.
    fatal_if(config_.lineBytes < 2 ||
             !std::has_single_bit(config_.lineBytes),
             "cache line size must be a power of two of at least 2");
    fatal_if(config_.assoc == 0, "cache associativity must be positive");
    const std::uint32_t lines = config_.sizeBytes / config_.lineBytes;
    fatal_if(lines == 0 || lines % config_.assoc != 0,
             "cache size must be a multiple of assoc * line size");
    numSets_ = lines / config_.assoc;
    fatal_if(!std::has_single_bit(numSets_),
             "cache set count must be a power of two");
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config_.lineBytes));
    setShift_ = static_cast<std::uint32_t>(std::countr_zero(numSets_));
    const std::size_t ways =
        static_cast<std::size_t>(numSets_) * config_.assoc;
    tags_.assign(ways, kEmpty);
    lastUse_.assign(ways, 0);
}

bool
Cache::touchSet(std::uint64_t line)
{
    const std::uint32_t assoc = config_.assoc;
    const std::size_t base =
        static_cast<std::size_t>(line & (numSets_ - 1)) * assoc;
    const std::uint64_t tag = line >> setShift_;
    const std::uint64_t *tags = tags_.data() + base;
    std::uint64_t *use = lastUse_.data() + base;

    std::uint32_t way = assoc;
    for (std::uint32_t w = 0; w < assoc; ++w)
        way = tags[w] == tag ? w : way;
    const bool hit = way != assoc;
    if (hit) {
        ++hits_;
    } else {
        // Victim: the last way holding the smallest stamp. Invalid
        // ways hold 0 and valid stamps are distinct ticks, so that is
        // the last invalid way, else the least-recently-used one.
        way = 0;
        std::uint64_t oldest = use[0];
        for (std::uint32_t w = 1; w < assoc; ++w) {
            const bool older = use[w] <= oldest;
            oldest = older ? use[w] : oldest;
            way = older ? w : way;
        }
        ++misses_;
        tags_[base + way] = tag;
    }
    use[way] = tick_;
    mruLine_ = line;
    mruWay_ = base + way;
    return hit;
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kEmpty);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    mruLine_ = kEmpty;
    mruWay_ = 0;
    tick_ = 0;
    hits_ = 0;
    misses_ = 0;
}

} // namespace rhmd::uarch
