// Virtual memory for simulated programs: a paged address space with NUMA
// placement policies. First-touch is the Linux default the paper's
// workloads run under; explicit binding and interleaving model
// numactl/libnuma usage (the NUMA-optimized SIFT case).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/machine.hpp"
#include "sim/topology.hpp"
#include "util/types.hpp"

namespace npat::os {

enum class PagePolicy : u8 {
  kFirstTouch,   // page lands on the node of the first core touching it
  kBind,         // all pages on a fixed node
  kInterleave,   // pages round-robin across all nodes
};

const char* page_policy_name(PagePolicy policy);

struct Region {
  VirtAddr base = 0;
  u64 bytes = 0;
  PagePolicy policy = PagePolicy::kFirstTouch;
  sim::NodeId bind_node = 0;
  u64 interleave_cursor = 0;  // next node for interleaved placement
  u64 page_bytes = kPageBytes;  // 4 KiB, or kHugePageBytes for THP regions
};

/// 2 MiB transparent-huge-page size.
inline constexpr u64 kHugePageBytes = 2 * 1024 * 1024;

/// TLB keys distinguish page sizes: huge entries occupy the same TLB but a
/// single entry covers 512x the reach.
constexpr u64 kHugeTlbKeyBit = 1ULL << 62;
constexpr u64 tlb_key_small(VirtAddr vaddr) noexcept { return vaddr / kPageBytes; }
constexpr u64 tlb_key_huge(VirtAddr vaddr) noexcept {
  return (vaddr / kHugePageBytes) | kHugeTlbKeyBit;
}

/// A process address space. Allocation reserves virtual pages (growing the
/// procfs-visible footprint immediately); physical frames are assigned on
/// first touch according to the region's policy.
class AddressSpace {
 public:
  explicit AddressSpace(const sim::Topology& topology);

  /// Reserves a region; returns its page-aligned base address.
  VirtAddr allocate(u64 bytes, PagePolicy policy = PagePolicy::kFirstTouch,
                    sim::NodeId bind_node = 0);

  /// Reserves a region backed by 2 MiB huge pages (rounded up); one TLB
  /// entry then covers 512 small pages. Huge regions are exempt from NUMA
  /// balancing (real kernels split THPs first; we simply do not migrate).
  VirtAddr allocate_huge(u64 bytes, PagePolicy policy = PagePolicy::kFirstTouch,
                         sim::NodeId bind_node = 0);

  /// Releases the region starting at `base` (must be an allocate() result).
  /// Returns pages to the OS and drops their translations; `on_unmap` (if
  /// set) is told about each vanishing page so TLBs can be shot down.
  /// When the last region is freed the bump allocators restart, so the next
  /// allocation round is bit-identical to one in a fresh space.
  void free(VirtAddr base);

  /// numactl analogue: while set, every subsequent allocation ignores the
  /// policy the caller asked for and uses `policy` (with `bind_node` for
  /// kBind) instead. This is how an *unmodified* workload is replayed under
  /// an advised placement. Already-placed pages are unaffected.
  void set_policy_override(PagePolicy policy, sim::NodeId bind_node = 0);
  void clear_policy_override() { override_.reset(); }
  bool policy_override_active() const noexcept { return override_.has_value(); }

  struct Translation {
    PhysAddr paddr = 0;
    /// Key the hardware TLB caches (encodes the page size).
    u64 tlb_key = 0;
  };

  /// Translates a virtual address, assigning a physical frame on first
  /// touch. `touching_node` decides placement under kFirstTouch.
  PhysAddr translate(VirtAddr vaddr, sim::NodeId touching_node);
  /// Like translate(), additionally reporting the TLB key.
  Translation translate_ex(VirtAddr vaddr, sim::NodeId touching_node);

  /// Translation without side effects; nullopt if the page is untouched.
  std::optional<PhysAddr> peek(VirtAddr vaddr) const;

  /// Reserved bytes — what /proc/<pid>/status VmSize reports and what
  /// Phasenprüfer samples.
  u64 footprint_bytes() const noexcept { return reserved_bytes_; }
  /// Touched bytes (VmRSS analogue).
  u64 resident_bytes() const noexcept { return resident_pages_ * kPageBytes; }

  /// Resident pages per node (numastat analogue).
  std::vector<u64> pages_per_node() const;

  /// Invoked for every page whose mapping is removed or *remapped*
  /// (free() and NUMA-balancing migrations) — the TLB shootdown hook.
  std::function<void(u64 page)> on_unmap;
  /// Invoked after a NUMA-balancing migration.
  std::function<void(u64 page, sim::NodeId from, sim::NodeId to)> on_migrate;

  /// Enables automatic NUMA balancing: a page whose last `threshold`
  /// touches all came from one *remote* node is migrated to that node
  /// (a simplified Linux AutoNUMA). Off by default.
  void enable_numa_balancing(u16 threshold);
  void disable_numa_balancing() { balancing_threshold_ = 0; }
  bool numa_balancing_enabled() const noexcept { return balancing_threshold_ > 0; }
  u64 pages_migrated() const noexcept { return pages_migrated_; }

  usize region_count() const noexcept { return regions_.size(); }

 private:
  struct Frame {
    PhysAddr base = 0;
    u16 remote_streak = 0;  // consecutive touches from one remote node
    sim::NodeId last_remote = 0;
  };

  struct PolicyOverride {
    PagePolicy policy = PagePolicy::kFirstTouch;
    sim::NodeId bind_node = 0;
  };

  /// First usable virtual address (skips the null page).
  static constexpr VirtAddr kFirstVaddr = 0x10000;

  Region* region_of(VirtAddr vaddr);
  PhysAddr allocate_frame(sim::NodeId node, u64 page_bytes);
  VirtAddr allocate_region(u64 bytes, PagePolicy policy, sim::NodeId bind_node,
                           u64 page_bytes);

  const sim::Topology* topology_;
  std::map<VirtAddr, Region> regions_;  // keyed by base, ordered for lookup
  std::unordered_map<u64, Frame> page_table_;  // 4 KiB vpage -> frame
  std::unordered_map<u64, Frame> huge_table_;  // 2 MiB vpage -> frame
  std::vector<u64> next_frame_;                // per node bump allocator
  std::vector<u64> node_pages_;
  std::optional<PolicyOverride> override_;
  VirtAddr next_vaddr_ = kFirstVaddr;
  u64 reserved_bytes_ = 0;
  u64 resident_pages_ = 0;
  u16 balancing_threshold_ = 0;
  u64 pages_migrated_ = 0;
};

}  // namespace npat::os
