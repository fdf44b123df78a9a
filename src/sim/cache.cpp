#include "sim/cache.hpp"

#include <sys/mman.h>

#include <bit>
#include <cstring>

#include "util/check.hpp"

namespace npat::sim {

namespace {

constexpr u64 kNibbleOnes = 0x1111111111111111ULL;
constexpr u64 kNibbleHighs = 0x8888888888888888ULL;
/// Way i in slot i. With fewer than 16 ways the slots past the last way
/// keep indices no way has, so the recency search never lands there.
constexpr u64 kIdentityOrder = 0xFEDCBA9876543210ULL;

/// Moves `way` to slot 0 of `order`, shifting the slots before it down.
inline u64 promote(u64 order, u32 way) {
  const u64 x = order ^ (kNibbleOnes * way);  // a zero nibble where `way` sits
  // The lowest set bit of this marks the lowest zero nibble exactly.
  const u64 zeros = (x - kNibbleOnes) & ~x & kNibbleHighs;
  const u32 shift = static_cast<u32>(std::countr_zero(zeros)) & ~3u;  // 4 * slot
  const u64 before = order & ((u64{1} << shift) - 1);
  const u64 after = order & ~((u64{16} << shift) - 1);  // wraps to 0 for slot 15
  return after | (before << 4) | way;
}

}  // namespace

void Cache::Unmap::operator()(std::byte* mapping) const noexcept { ::munmap(mapping, bytes); }

Cache::Cache(const CacheConfig& config)
    : config_(config), sets_(config.sets()) {
  NPAT_CHECK_MSG(config_.line_bytes > 0 && config_.ways > 0, "invalid cache geometry");
  // The recency order packs each way's index into 4 bits of one u64.
  NPAT_CHECK_MSG(config_.ways <= 16, "a cache or TLB level has at most 16 ways");
  NPAT_CHECK_MSG(config_.size_bytes % (static_cast<u64>(config_.ways) * config_.line_bytes) == 0,
                 "cache size must be divisible by ways*line");
  NPAT_CHECK_MSG(sets_ > 0, "cache must have at least one set");
  const auto bits = static_cast<u32>(std::bit_width(sets_));
  set_shift_ = bits - 1;
  set_magic_ = std::has_single_bit(sets_)
                   ? 0
                   : static_cast<u64>(((u128{1} << 64) * ((u128{1} << bits) - sets_)) / sets_) + 1;
  const usize header_bytes = (sets_ * sizeof(Set) + 63) / 64 * 64;
  const usize bytes = header_bytes + sets_ * config_.ways * sizeof(u64);
  void* mapping =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  NPAT_CHECK_MSG(mapping != MAP_FAILED, "cannot map " + config_.name + " sets");
  mapping_ = std::unique_ptr<std::byte[], Unmap>(static_cast<std::byte*>(mapping), Unmap{bytes});
  headers_ = reinterpret_cast<Set*>(mapping_.get());
  tags_ = reinterpret_cast<u64*>(mapping_.get() + header_bytes);
}

inline Cache::Set& Cache::live_set(usize set) {
  Set& s = headers_[set];
  if (s.epoch != epoch_) s = Set{kIdentityOrder, epoch_, 0, 0};
  return s;
}

inline int Cache::find(const Set& set, usize index, u64 tag) const {
  const u64* tags = tags_of(index);
  // Probe the most recent way first: a streaming core hits it many times
  // in a row. Then compare the tags up to the last valid way without
  // branching on the outcome; a set refilled since the last reset holds
  // few lines, so its cold tags stay untouched.
  const u32 mru = static_cast<u32>(set.order & 15);
  if (((set.valid >> mru) & 1) != 0 && tags[mru] == tag) return static_cast<int>(mru);
  u32 match = 0;
  const u32 end = static_cast<u32>(std::bit_width(u32{set.valid}));
  for (u32 w = 0; w < end; ++w) match |= u32{tags[w] == tag} << w;
  match &= set.valid;
  return match != 0 ? std::countr_zero(match) : -1;
}

inline CacheOutcome Cache::insert(Set& set, usize index, u64 tag, bool dirty) {
  const u32 free = ~u32{set.valid} & ((1u << config_.ways) - 1);
  const u32 lru_shift = 4 * (config_.ways - 1);
  const u32 way = free != 0 ? static_cast<u32>(std::countr_zero(free))
                            : static_cast<u32>(set.order >> lru_shift) & 15;
  const u16 bit = static_cast<u16>(1u << way);
  u64* tags = tags_of(index);
  CacheOutcome outcome;
  if (free == 0) {
    outcome.evicted_line = tags[way] * sets_ + index;
    outcome.evicted_dirty = (set.dirty & bit) != 0;
    // The victim sat in the least recent slot: rotate it to the front.
    const u64 slots = (u64{16} << lru_shift) - 1;  // wraps to all ones for 16 ways
    set.order = (set.order & ~slots) | ((set.order << 4) & slots) | way;
  } else {
    set.order = promote(set.order, way);
  }
  tags[way] = tag;
  set.valid |= bit;
  set.dirty = static_cast<u16>(dirty ? set.dirty | bit : set.dirty & ~bit);
  return outcome;
}

CacheOutcome Cache::access(u64 line_addr, bool is_write) {
  const auto [index, tag] = locate(line_addr);
  Set& set = live_set(index);
  const int way = find(set, index, tag);
  if (way < 0) return insert(set, index, tag, is_write);
  if (static_cast<u32>(way) != (set.order & 15)) set.order = promote(set.order, static_cast<u32>(way));
  if (is_write) set.dirty |= static_cast<u16>(1u << way);
  return CacheOutcome{true, std::nullopt, false};
}

CacheOutcome Cache::fill(u64 line_addr) {
  const auto [index, tag] = locate(line_addr);
  Set& set = live_set(index);
  // Prefetch hits do not refresh LRU: demand traffic dominates recency.
  if (find(set, index, tag) >= 0) return CacheOutcome{true, std::nullopt, false};
  return insert(set, index, tag, false);
}

bool Cache::contains(u64 line_addr) const {
  const auto [index, tag] = locate(line_addr);
  const Set& set = headers_[index];
  return set.epoch == epoch_ && find(set, index, tag) >= 0;
}

bool Cache::invalidate(u64 line_addr) {
  const auto [index, tag] = locate(line_addr);
  Set& set = headers_[index];
  if (set.epoch != epoch_) return false;
  const int way = find(set, index, tag);
  if (way < 0) return false;
  const u16 bit = static_cast<u16>(1u << way);
  const bool dirty = (set.dirty & bit) != 0;
  set.valid &= static_cast<u16>(~bit);
  set.dirty &= static_cast<u16>(~bit);
  return dirty;
}

u64 Cache::valid_lines() const {
  u64 count = 0;
  for (usize i = 0; i < sets_; ++i) {
    const Set& set = headers_[i];
    if (set.epoch == epoch_) count += static_cast<u64>(std::popcount(set.valid));
  }
  return count;
}

void Cache::clear() {
  if (++epoch_ != 0) return;
  // The epoch wrapped: sets tagged long ago would read as live again.
  std::memset(headers_, 0, sets_ * sizeof(Set));
  epoch_ = 1;
}

}  // namespace npat::sim
