#include "sim/cache.hpp"

#include <sys/mman.h>

#include <cstring>

#include "util/check.hpp"

namespace npat::sim {

void Cache::UnmapLines::operator()(Line* lines) const noexcept { ::munmap(lines, bytes); }

Cache::Cache(const CacheConfig& config) : config_(config), sets_(config.sets()) {
  NPAT_CHECK_MSG(config_.line_bytes > 0 && config_.ways > 0, "invalid cache geometry");
  NPAT_CHECK_MSG(config_.size_bytes % (static_cast<u64>(config_.ways) * config_.line_bytes) == 0,
                 "cache size must be divisible by ways*line");
  NPAT_CHECK_MSG(sets_ > 0, "cache must have at least one set");
  const usize bytes = config_.lines() * sizeof(Line);
  void* mapping =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  NPAT_CHECK_MSG(mapping != MAP_FAILED, "cannot map " + config_.name + " lines");
  lines_ = std::unique_ptr<Line[], UnmapLines>(static_cast<Line*>(mapping), UnmapLines{bytes});
}

Cache::Line* Cache::find(u64 line_addr) {
  const usize set = set_index(line_addr);
  const u64 tag = tag_of(line_addr);
  Line* base = &lines_[set * config_.ways];
  for (u32 w = 0; w < config_.ways; ++w) {
    if (base[w].epoch == epoch_ && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

const Cache::Line* Cache::find(u64 line_addr) const {
  return const_cast<Cache*>(this)->find(line_addr);
}

Cache::Line& Cache::victim(usize set) {
  Line* base = &lines_[set * config_.ways];
  Line* best = base;
  for (u32 w = 0; w < config_.ways; ++w) {
    if (base[w].epoch != epoch_) return base[w];
    if (base[w].stamp < best->stamp) best = &base[w];
  }
  return *best;
}

CacheOutcome Cache::access(u64 line_addr, bool is_write) {
  ++clock_;
  CacheOutcome outcome;
  if (Line* line = find(line_addr)) {
    outcome.hit = true;
    line->stamp = clock_;
    line->dirty |= is_write;
    return outcome;
  }
  const usize set = set_index(line_addr);
  Line& slot = victim(set);
  if (slot.epoch == epoch_) {
    // Reconstruct the evicted line address from tag and set.
    outcome.evicted_line = slot.tag * sets_ + static_cast<u64>(set);
    outcome.evicted_dirty = slot.dirty;
  }
  slot.epoch = epoch_;
  slot.tag = tag_of(line_addr);
  slot.stamp = clock_;
  slot.dirty = is_write;
  return outcome;
}

CacheOutcome Cache::fill(u64 line_addr) {
  ++clock_;
  CacheOutcome outcome;
  if (find(line_addr) != nullptr) {
    outcome.hit = true;
    // Prefetch hits do not refresh LRU: demand traffic dominates recency.
    return outcome;
  }
  const usize set = set_index(line_addr);
  Line& slot = victim(set);
  if (slot.epoch == epoch_) {
    outcome.evicted_line = slot.tag * sets_ + static_cast<u64>(set);
    outcome.evicted_dirty = slot.dirty;
  }
  slot.epoch = epoch_;
  slot.tag = tag_of(line_addr);
  slot.stamp = clock_;
  slot.dirty = false;
  return outcome;
}

bool Cache::contains(u64 line_addr) const { return find(line_addr) != nullptr; }

bool Cache::invalidate(u64 line_addr) {
  if (Line* line = find(line_addr)) {
    line->epoch = 0;
    return line->dirty;
  }
  return false;
}

u64 Cache::valid_lines() const {
  u64 count = 0;
  for (usize i = 0; i < config_.lines(); ++i) count += lines_[i].epoch == epoch_ ? 1 : 0;
  return count;
}

void Cache::clear() {
  clock_ = 0;
  if (++epoch_ != 0) return;
  // The epoch wrapped: lines tagged long ago would read as valid again.
  std::memset(lines_.get(), 0, config_.lines() * sizeof(Line));
  epoch_ = 1;
}

}  // namespace npat::sim
