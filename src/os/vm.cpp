#include "os/vm.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace npat::os {

namespace {
constexpr u64 kSmallPagesPerHuge = kHugePageBytes / kPageBytes;
}

const char* page_policy_name(PagePolicy policy) {
  switch (policy) {
    case PagePolicy::kFirstTouch: return "first-touch";
    case PagePolicy::kBind: return "bind";
    case PagePolicy::kInterleave: return "interleave";
  }
  return "first-touch";
}

AddressSpace::AddressSpace(const sim::Topology& topology)
    : topology_(&topology),
      next_frame_(topology.nodes, 0),
      node_pages_(topology.nodes, 0) {}

VirtAddr AddressSpace::allocate_region(u64 bytes, PagePolicy policy,
                                       sim::NodeId bind_node, u64 page_bytes) {
  NPAT_CHECK_MSG(bytes > 0, "cannot allocate zero bytes");
  NPAT_CHECK_MSG(bind_node < topology_->nodes, "bind node out of range");
  if (override_) {
    policy = override_->policy;
    bind_node = override_->bind_node;
  }

  const u64 aligned = (bytes + page_bytes - 1) / page_bytes * page_bytes;
  // Align the base itself to the page size (huge regions must start on a
  // huge-page boundary).
  next_vaddr_ = (next_vaddr_ + page_bytes - 1) / page_bytes * page_bytes;

  Region region;
  region.base = next_vaddr_;
  region.bytes = aligned;
  region.policy = policy;
  region.bind_node = bind_node;
  region.page_bytes = page_bytes;
  next_vaddr_ += aligned + page_bytes;  // guard page between regions
  reserved_bytes_ += aligned;
  const VirtAddr base = region.base;
  regions_.emplace(base, std::move(region));
  return base;
}

VirtAddr AddressSpace::allocate(u64 bytes, PagePolicy policy, sim::NodeId bind_node) {
  return allocate_region(bytes, policy, bind_node, kPageBytes);
}

VirtAddr AddressSpace::allocate_huge(u64 bytes, PagePolicy policy, sim::NodeId bind_node) {
  return allocate_region(bytes, policy, bind_node, kHugePageBytes);
}

Region* AddressSpace::region_of(VirtAddr vaddr) {
  auto it = regions_.upper_bound(vaddr);
  if (it == regions_.begin()) return nullptr;
  --it;
  Region& region = it->second;
  if (vaddr >= region.base && vaddr < region.base + region.bytes) return &region;
  return nullptr;
}

void AddressSpace::free(VirtAddr base) {
  const auto it = regions_.find(base);
  NPAT_CHECK_MSG(it != regions_.end(), "free() of unknown region base");
  const Region& region = it->second;
  const bool huge = region.page_bytes == kHugePageBytes;
  auto& table = huge ? huge_table_ : page_table_;
  const u64 page_units = huge ? kSmallPagesPerHuge : 1;

  const u64 first_page = region.base / region.page_bytes;
  const u64 last_page = (region.base + region.bytes - 1) / region.page_bytes;
  for (u64 page = first_page; page <= last_page; ++page) {
    const auto entry = table.find(page);
    if (entry == table.end()) continue;
    const sim::NodeId node = sim::node_of_paddr(entry->second.base);
    NPAT_CHECK(node_pages_[node] >= page_units);
    node_pages_[node] -= page_units;
    resident_pages_ -= page_units;
    table.erase(entry);
    if (on_unmap) {
      on_unmap(huge ? ((page * kHugePageBytes) / kHugePageBytes) | kHugeTlbKeyBit : page);
    }
  }
  reserved_bytes_ -= region.bytes;
  regions_.erase(it);
  if (regions_.empty()) {
    // Empty space: restart the bump allocators so the next allocation round
    // reuses the same virtual addresses and physical frames a fresh space
    // would hand out — a replayed run must be bit-identical to a first run.
    next_vaddr_ = kFirstVaddr;
    std::fill(next_frame_.begin(), next_frame_.end(), 0);
  }
}

void AddressSpace::set_policy_override(PagePolicy policy, sim::NodeId bind_node) {
  NPAT_CHECK_MSG(policy != PagePolicy::kBind || bind_node < topology_->nodes,
                 "override bind node out of range");
  override_ = PolicyOverride{policy, bind_node};
}

void AddressSpace::enable_numa_balancing(u16 threshold) {
  NPAT_CHECK_MSG(threshold > 0, "balancing threshold must be positive");
  balancing_threshold_ = threshold;
}

PhysAddr AddressSpace::allocate_frame(sim::NodeId node, u64 page_bytes) {
  NPAT_CHECK_MSG(node < topology_->nodes, "placement node out of range");
  // Frames are carved in huge-page units so huge frames stay aligned.
  const u64 units = (page_bytes + kPageBytes - 1) / kPageBytes;
  const u64 frame_index = next_frame_[node];
  next_frame_[node] += units;
  return sim::make_paddr(node, frame_index * kPageBytes);
}

AddressSpace::Translation AddressSpace::translate_ex(VirtAddr vaddr,
                                                     sim::NodeId touching_node) {
  // Fast path 1: small-page mapping.
  {
    const u64 page = vaddr / kPageBytes;
    const auto entry = page_table_.find(page);
    if (entry != page_table_.end()) {
      Frame& frame = entry->second;
      if (balancing_threshold_ > 0) {
        const sim::NodeId home = sim::node_of_paddr(frame.base);
        if (touching_node == home) {
          frame.remote_streak = 0;
        } else {
          // Count consecutive touches from one remote node; a mixed stream
          // restarts the streak (migrating ping-ponged pages is harmful).
          if (frame.remote_streak > 0 && frame.last_remote == touching_node) {
            ++frame.remote_streak;
          } else {
            frame.remote_streak = 1;
            frame.last_remote = touching_node;
          }
          if (frame.remote_streak >= balancing_threshold_) {
            --node_pages_[home];
            ++node_pages_[touching_node];
            frame.base = allocate_frame(touching_node, kPageBytes);
            frame.remote_streak = 0;
            ++pages_migrated_;
            if (on_unmap) on_unmap(page);  // TLB shootdown
            if (on_migrate) on_migrate(page, home, touching_node);
          }
        }
      }
      return Translation{frame.base + vaddr % kPageBytes, tlb_key_small(vaddr)};
    }
  }
  // Fast path 2: huge-page mapping (exempt from balancing).
  {
    const u64 hpage = vaddr / kHugePageBytes;
    const auto entry = huge_table_.find(hpage);
    if (entry != huge_table_.end()) {
      return Translation{entry->second.base + vaddr % kHugePageBytes,
                         tlb_key_huge(vaddr)};
    }
  }

  // Slow path: first touch.
  Region* region = region_of(vaddr);
  NPAT_CHECK_MSG(region != nullptr, "access to unmapped virtual address");

  sim::NodeId node = touching_node;
  switch (region->policy) {
    case PagePolicy::kFirstTouch:
      break;
    case PagePolicy::kBind:
      node = region->bind_node;
      break;
    case PagePolicy::kInterleave:
      node = static_cast<sim::NodeId>(region->interleave_cursor % topology_->nodes);
      ++region->interleave_cursor;
      break;
  }

  const bool huge = region->page_bytes == kHugePageBytes;
  const PhysAddr frame = allocate_frame(node, region->page_bytes);
  const u64 page_units = huge ? kSmallPagesPerHuge : 1;
  if (huge) {
    huge_table_.emplace(vaddr / kHugePageBytes, Frame{frame, 0, 0});
  } else {
    page_table_.emplace(vaddr / kPageBytes, Frame{frame, 0, 0});
  }
  node_pages_[node] += page_units;
  resident_pages_ += page_units;
  return Translation{frame + vaddr % region->page_bytes,
                     huge ? tlb_key_huge(vaddr) : tlb_key_small(vaddr)};
}

PhysAddr AddressSpace::translate(VirtAddr vaddr, sim::NodeId touching_node) {
  return translate_ex(vaddr, touching_node).paddr;
}

std::optional<PhysAddr> AddressSpace::peek(VirtAddr vaddr) const {
  const auto small = page_table_.find(vaddr / kPageBytes);
  if (small != page_table_.end()) return small->second.base + vaddr % kPageBytes;
  const auto huge = huge_table_.find(vaddr / kHugePageBytes);
  if (huge != huge_table_.end()) return huge->second.base + vaddr % kHugePageBytes;
  return std::nullopt;
}

std::vector<u64> AddressSpace::pages_per_node() const { return node_pages_; }

}  // namespace npat::os
