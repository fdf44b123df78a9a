// Program execution: the Runner schedules simulated threads (coroutines)
// onto machine cores, keeps their clocks loosely synchronized (min-clock
// scheduling with a cycle quantum), services barriers, and drives
// registered time-based samplers (procfs footprint, Memhist threshold
// cycling) from simulated time.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/affinity.hpp"
#include "os/vm.hpp"
#include "sim/machine.hpp"
#include "trace/task.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace npat::trace {

class Runner;

/// Per-thread handle workload bodies use to act on the machine. All memory
/// operations take *virtual* addresses; translation (with first-touch
/// placement) happens here.
class ThreadContext {
 public:
  // --- awaitable operations (must be co_await-ed) ---
  OpAwaiter load(VirtAddr vaddr);
  OpAwaiter store(VirtAddr vaddr);
  /// Locked read-modify-write.
  OpAwaiter atomic(VirtAddr vaddr);
  /// Retires `instructions` ALU instructions.
  OpAwaiter compute(u64 instructions);
  /// One conditional branch at static site `site_key`.
  OpAwaiter branch(u64 site_key, bool taken);
  /// Blocks until all program threads arrive; implemented with an atomic
  /// ticket on a shared line, so barriers generate real coherence traffic.
  OpAwaiter barrier(u32 id);

  // --- immediate services (plain calls) ---
  VirtAddr alloc(u64 bytes, os::PagePolicy policy = os::PagePolicy::kFirstTouch,
                 sim::NodeId bind_node = 0);
  /// 2 MiB-huge-page-backed allocation (one TLB entry per 2 MiB).
  VirtAddr alloc_huge(u64 bytes, os::PagePolicy policy = os::PagePolicy::kFirstTouch,
                      sim::NodeId bind_node = 0);
  /// Records a labelled timestamp in the run result (ground truth for
  /// phase-detection tests).
  void phase_mark(u32 id);

  /// Attributes all machine events between tag switches to `tag` (the
  /// counter→code-location mapping of the paper's outlook). Deltas are
  /// delivered to the runner's tag sink; without a sink this is free.
  void set_source_tag(u32 tag);
  u32 source_tag() const noexcept { return source_tag_; }

  // --- introspection ---
  u32 index() const noexcept { return index_; }
  /// Task identity (resolved from the program's TaskSpec at run start).
  u32 pid() const noexcept { return pid_; }
  u32 tid() const noexcept { return tid_; }
  u32 thread_count() const noexcept;
  sim::CoreId core() const noexcept { return core_; }
  sim::NodeId node() const noexcept;
  util::Xoshiro256ss& rng() noexcept { return rng_; }
  sim::DataSource last_source() const noexcept { return last_source_; }
  Cycles now() const noexcept;

 private:
  friend class Runner;
  friend class SubTask;

  enum class State : u8 { kRunnable, kBlocked, kDone };

  ThreadContext(Runner& runner, u32 index, sim::CoreId core, u64 seed)
      : runner_(&runner), index_(index), core_(core), rng_(seed) {}

  OpAwaiter after_op();

  void flush_tag_delta();

  Runner* runner_;
  u32 index_;
  u32 pid_ = 1;
  u32 tid_ = 0;
  sim::CoreId core_;
  State state_ = State::kRunnable;
  Cycles slice_end_ = 0;
  util::Xoshiro256ss rng_;
  sim::DataSource last_source_ = sim::DataSource::kL1;
  u32 source_tag_ = 0;
  sim::CounterBlock tag_baseline_;
  /// Innermost coroutine of this thread's call chain; the scheduler always
  /// resumes this handle (SubTask awaits push/pop it).
  std::coroutine_handle<> active_;
};

/// An awaitable sub-coroutine: lets workload bodies factor logic into
/// helper coroutines (`co_await merge_run(ctx, ...)`). Uses symmetric
/// transfer and keeps the thread's active handle pointed at the innermost
/// frame so the scheduler resumes the right coroutine after a preemption.
/// The first parameter of a SubTask coroutine MUST be the ThreadContext&.
class SubTask {
 public:
  struct promise_type {
    ThreadContext* ctx;
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    // The promise constructor sees the coroutine's arguments (C++20);
    // we only need the leading ThreadContext&.
    template <typename... Args>
    explicit promise_type(ThreadContext& context, Args&&...) : ctx(&context) {}

    SubTask get_return_object() {
      return SubTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> handle) const noexcept {
        auto& promise = handle.promise();
        promise.ctx->active_ = promise.continuation;
        return promise.continuation;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }
  };

  explicit SubTask(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  SubTask(SubTask&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  SubTask(const SubTask&) = delete;
  SubTask& operator=(const SubTask&) = delete;
  SubTask& operator=(SubTask&&) = delete;
  ~SubTask() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    auto& promise = handle_.promise();
    promise.continuation = parent;
    promise.ctx->active_ = handle_;
    return handle_;  // symmetric transfer into the child
  }
  void await_resume() {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  std::coroutine_handle<promise_type> handle_;
};

using ThreadBody = std::function<SimTask(ThreadContext&)>;

/// Task identity of one program thread: which simulated process/thread it
/// belongs to (the `(pid, tid)` every access is attributed to when task
/// accounting is on) plus human-readable names for drill-down views.
struct TaskSpec {
  u32 pid = 0;  ///< 0 = assign the default identity at run start
  u32 tid = 0;
  std::string process_name;
  std::string thread_name;
};

struct Program {
  std::vector<ThreadBody> threads;
  /// Optional task identities, parallel to `threads`. May be empty (every
  /// thread gets pid 1 / tid index+1 and generated names) but if non-empty
  /// must match `threads` in size. Unset entries (pid == 0) get defaults.
  std::vector<TaskSpec> tasks;

  static Program single(ThreadBody body) {
    Program p;
    p.threads.push_back(std::move(body));
    return p;
  }
  /// `threads` copies of the same body (they differentiate via ctx.index()).
  static Program homogeneous(u32 threads, ThreadBody body);

  /// Names this program's process: all threads get `pid` and
  /// `process_name`; threads keep (or are assigned) per-thread tids/names.
  Program& name_process(u32 pid, std::string process_name);
};

struct RunnerConfig {
  Cycles quantum = 4000;
  os::AffinityPolicy affinity = os::AffinityPolicy::kCompact;
  Cycles barrier_overhead = 120;
  u64 seed = 0x5eedULL;
  /// When true every scheduler slice charges the machine's per-task PMU
  /// domains with the running thread's (pid, tid) — the data behind
  /// numatop-style drill-down. Off by default: node-only aggregation
  /// stays the zero-overhead baseline.
  bool task_accounting = false;
};

struct PhaseMark {
  u32 id = 0;
  Cycles timestamp = 0;
};

struct RunResult {
  Cycles duration = 0;  // max core clock delta over the run
  std::vector<PhaseMark> phase_marks;
  u64 scheduler_slices = 0;
};

/// The task identities a run of `program` will use, with defaults filled
/// in (pid 1, tid = index + 1, generated names). Exposed so callers can
/// register tasks (e.g. in a wire TaskTable) before the run starts.
std::vector<TaskSpec> resolved_tasks(const Program& program);

class Runner {
 public:
  /// The runner wires the address space's unmap hook to the machine's TLB
  /// shootdown for the duration of its lifetime.
  Runner(sim::Machine& machine, os::AddressSpace& space, RunnerConfig config = {});
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Registers a sampler fired every `interval` cycles of simulated time
  /// (catch-up semantics: a long op fires all missed ticks afterwards).
  void add_sampler(Cycles interval, std::function<void(Cycles)> callback);

  /// Receives per-tag counter deltas (counter→code-location attribution):
  /// called whenever a thread switches its source tag, and once per thread
  /// at program end for the final region.
  using TagSink = std::function<void(u32 tag, const sim::CounterBlock& delta)>;
  void set_tag_sink(TagSink sink) { tag_sink_ = std::move(sink); }

  /// Runs the program to completion. Throws if a thread body threw or the
  /// program deadlocked on a barrier.
  RunResult run(const Program& program);

  sim::Machine& machine() noexcept { return *machine_; }
  os::AddressSpace& address_space() noexcept { return *space_; }
  const RunnerConfig& config() const noexcept { return config_; }

 private:
  friend class ThreadContext;

  struct ThreadRecord {
    std::unique_ptr<ThreadContext> context;
    SimTask task;
  };

  struct BarrierState {
    u32 arrived = 0;
    Cycles max_arrival = 0;
    std::vector<u32> waiters;
    VirtAddr flag = 0;
  };

  struct Sampler {
    Cycles interval = 0;
    Cycles next_fire = 0;
    std::function<void(Cycles)> callback;
  };

  Cycles clock_of(u32 thread) const;
  void fire_samplers(Cycles now);
  /// Barrier arrival; returns true if the calling thread must block.
  bool barrier_arrive(ThreadContext& ctx, u32 id);

  sim::Machine* machine_;
  os::AddressSpace* space_;
  RunnerConfig config_;
  std::vector<ThreadRecord> threads_;
  std::unordered_map<u32, BarrierState> barriers_;
  std::vector<Sampler> samplers_;
  std::vector<PhaseMark> phase_marks_;
  TagSink tag_sink_;
  u32 live_threads_ = 0;
};

/// One simulated run on `machine`, the unit every npat tool is built from
/// (EvSel re-runs the whole program per register group and repetition,
/// §IV-A.1). Construction resets the machine, builds a fresh address space
/// over its topology and a runner wired to both. Attach samplers, sessions
/// and profiles to `runner()` and `space()` before `run()`; read them after.
class Run {
 public:
  explicit Run(sim::Machine& machine, RunnerConfig config = {})
      : space_((machine.reset(), machine.topology())), runner_(machine, space_, config) {}

  os::AddressSpace& space() noexcept { return space_; }
  Runner& runner() noexcept { return runner_; }

  /// Runs `program` to completion; a second call continues on the same
  /// space and machine state (e.g. a measured run after a warm-up).
  RunResult run(const Program& program) { return runner_.run(program); }

 private:
  // Declared before the runner so the runner (and its unmap/migrate hooks
  // on the space) is destroyed first.
  os::AddressSpace space_;
  Runner runner_;
};

}  // namespace npat::trace
