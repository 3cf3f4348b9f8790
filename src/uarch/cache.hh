/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Supplies the cache-miss events of the Architectural feature family
 * (the paper collects these from the hardware performance-monitoring
 * unit; we model the unit itself).
 */

#ifndef RHMD_UARCH_CACHE_HH
#define RHMD_UARCH_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rhmd::uarch
{

/** Geometry of a cache. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;
};

/**
 * A single-level set-associative cache with true-LRU replacement.
 * Tracks hit/miss counts; accesses spanning a line boundary touch
 * every covered line (that is what makes unaligned accesses cost
 * extra in the CPI model).
 *
 * Layout: each set's tags sit contiguously (kEmpty marks an invalid
 * way) with the LRU stamps in a parallel array, so a lookup scans
 * one short run of tags. A repeat of the most recently used line —
 * the common case for instruction fetch — skips the set scan; it is
 * still a hit that advances the clock and the line's LRU stamp, so
 * every count and later eviction matches the plain scan.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access one line. @return true on hit; on miss the line is
     * filled (allocate-on-miss for both reads and writes).
     */
    bool accessLine(std::uint64_t addr) { return touch(addr >> lineShift_); }

    /**
     * Access @p size bytes at @p addr, touching every covered line
     * (a zero size touches one byte).
     * @return number of misses among the covered lines.
     */
    std::uint32_t
    access(std::uint64_t addr, std::uint32_t size)
    {
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last =
            (addr + (size == 0 ? 0 : size - 1)) >> lineShift_;
        if (first == last) [[likely]]
            return touch(first) ? 0 : 1;
        std::uint32_t line_misses = 0;
        for (std::uint64_t line = first; line <= last; ++line)
            line_misses += touch(line) ? 0 : 1;
        return line_misses;
    }

    /** Invalidate all contents and zero statistics. */
    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    const CacheConfig &config() const { return config_; }

    /** Number of sets (derived from the geometry). */
    std::uint32_t numSets() const { return numSets_; }

  private:
    /** Tag of an invalid way; no line's tag can equal it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /** Access line number @p line; @return true on hit. */
    bool
    touch(std::uint64_t line)
    {
        ++tick_;
        if (line == mruLine_) {
            lastUse_[mruWay_] = tick_;
            ++hits_;
            return true;
        }
        return touchSet(line);
    }

    /** The set scan behind touch(): hit, or fill the LRU victim. */
    bool touchSet(std::uint64_t line);

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::uint32_t setShift_;
    std::vector<std::uint64_t> tags_;     ///< [set][way], kEmpty = invalid
    std::vector<std::uint64_t> lastUse_;  ///< [set][way], 0 = never used
    std::uint64_t mruLine_ = kEmpty;      ///< last line touched
    std::size_t mruWay_ = 0;              ///< its index in tags_
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace rhmd::uarch

#endif // RHMD_UARCH_CACHE_HH
