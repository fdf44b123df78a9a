#include "trace/runner.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace npat::trace {

// --- ThreadContext ---------------------------------------------------------

u32 ThreadContext::thread_count() const noexcept {
  return static_cast<u32>(runner_->threads_.size());
}

sim::NodeId ThreadContext::node() const noexcept {
  return runner_->machine_->topology().node_of_core(core_);
}

Cycles ThreadContext::now() const noexcept { return runner_->machine_->core_clock(core_); }

OpAwaiter ThreadContext::after_op() {
  return OpAwaiter{now() >= slice_end_ || state_ != State::kRunnable};
}

OpAwaiter ThreadContext::load(VirtAddr vaddr) {
  const auto t = runner_->space_->translate_ex(vaddr, node());
  last_source_ = runner_->machine_->load(core_, t.paddr, vaddr, t.tlb_key).source;
  return after_op();
}

OpAwaiter ThreadContext::store(VirtAddr vaddr) {
  const auto t = runner_->space_->translate_ex(vaddr, node());
  last_source_ = runner_->machine_->store(core_, t.paddr, vaddr, t.tlb_key).source;
  return after_op();
}

OpAwaiter ThreadContext::atomic(VirtAddr vaddr) {
  const auto t = runner_->space_->translate_ex(vaddr, node());
  last_source_ = runner_->machine_->atomic_rmw(core_, t.paddr, vaddr, t.tlb_key).source;
  return after_op();
}

OpAwaiter ThreadContext::compute(u64 instructions) {
  runner_->machine_->execute(core_, instructions);
  return after_op();
}

OpAwaiter ThreadContext::branch(u64 site_key, bool taken) {
  runner_->machine_->branch(core_, site_key, taken);
  return after_op();
}

OpAwaiter ThreadContext::barrier(u32 id) {
  const bool blocked = runner_->barrier_arrive(*this, id);
  if (blocked) state_ = State::kBlocked;
  return OpAwaiter{blocked || now() >= slice_end_};
}

VirtAddr ThreadContext::alloc(u64 bytes, os::PagePolicy policy, sim::NodeId bind_node) {
  return runner_->space_->allocate(bytes, policy, bind_node);
}

VirtAddr ThreadContext::alloc_huge(u64 bytes, os::PagePolicy policy,
                                   sim::NodeId bind_node) {
  return runner_->space_->allocate_huge(bytes, policy, bind_node);
}

void ThreadContext::phase_mark(u32 id) {
  runner_->phase_marks_.push_back(PhaseMark{id, now()});
}

void ThreadContext::flush_tag_delta() {
  if (!runner_->tag_sink_) return;
  const sim::CounterBlock& now_block = runner_->machine_->core_counters(core_);
  sim::CounterBlock delta;
  for (usize i = 0; i < sim::kEventCount; ++i) {
    delta.values[i] = now_block.values[i] - tag_baseline_.values[i];
  }
  runner_->tag_sink_(source_tag_, delta);
  tag_baseline_ = now_block;
}

void ThreadContext::set_source_tag(u32 tag) {
  if (tag == source_tag_) return;
  flush_tag_delta();
  // Without a sink the baseline is stale, but also never read.
  source_tag_ = tag;
}

// --- Program ---------------------------------------------------------------

Program Program::homogeneous(u32 threads, ThreadBody body) {
  NPAT_CHECK_MSG(threads >= 1, "program needs at least one thread");
  Program p;
  p.threads.assign(threads, body);
  return p;
}

Program& Program::name_process(u32 pid, std::string process_name) {
  NPAT_CHECK_MSG(pid != 0, "pid 0 is reserved for the default identity");
  if (tasks.size() < threads.size()) tasks.resize(threads.size());
  for (usize i = 0; i < tasks.size(); ++i) {
    tasks[i].pid = pid;
    tasks[i].process_name = process_name;
    if (tasks[i].tid == 0) tasks[i].tid = static_cast<u32>(i) + 1;
  }
  return *this;
}

std::vector<TaskSpec> resolved_tasks(const Program& program) {
  NPAT_CHECK_MSG(program.tasks.empty() || program.tasks.size() == program.threads.size(),
                 "program task specs must be empty or match the thread count");
  std::vector<TaskSpec> resolved(program.tasks);
  resolved.resize(program.threads.size());
  for (usize i = 0; i < resolved.size(); ++i) {
    TaskSpec& spec = resolved[i];
    if (spec.pid == 0) spec.pid = 1;
    if (spec.tid == 0) spec.tid = static_cast<u32>(i) + 1;
    if (spec.process_name.empty()) spec.process_name = "main";
    if (spec.thread_name.empty()) spec.thread_name = "t" + std::to_string(i);
  }
  return resolved;
}

// --- Runner ----------------------------------------------------------------

Runner::Runner(sim::Machine& machine, os::AddressSpace& space, RunnerConfig config)
    : machine_(&machine), space_(&space), config_(config) {
  NPAT_CHECK_MSG(config_.quantum > 0, "quantum must be positive");
  space_->on_unmap = [this](u64 page) { machine_->invalidate_page(page); };
  space_->on_migrate = [this](u64 /*page*/, sim::NodeId /*from*/, sim::NodeId /*to*/) {
    machine_->count_software_event(sim::Event::kSwPageMigrations);
  };
}

Runner::~Runner() {
  space_->on_unmap = nullptr;
  space_->on_migrate = nullptr;
}

void Runner::add_sampler(Cycles interval, std::function<void(Cycles)> callback) {
  NPAT_CHECK_MSG(interval > 0, "sampler interval must be positive");
  samplers_.push_back(Sampler{interval, 0, std::move(callback)});
}

Cycles Runner::clock_of(u32 thread) const {
  return machine_->core_clock(threads_[thread].context->core_);
}

void Runner::fire_samplers(Cycles now) {
  for (auto& sampler : samplers_) {
    while (sampler.next_fire <= now) {
      sampler.callback(sampler.next_fire);
      sampler.next_fire += sampler.interval;
    }
  }
}

bool Runner::barrier_arrive(ThreadContext& ctx, u32 id) {
  BarrierState& barrier = barriers_[id];
  if (barrier.flag == 0) {
    // One cache line per barrier; the ticket bounces between participants.
    barrier.flag = space_->allocate(kCacheLineBytes);
  }
  // Take the ticket: a locked RMW on the shared line (coherence traffic).
  const PhysAddr paddr = space_->translate(barrier.flag, ctx.node());
  machine_->atomic_rmw(ctx.core_, paddr, barrier.flag);

  barrier.arrived += 1;
  barrier.max_arrival = std::max(barrier.max_arrival, ctx.now());

  if (barrier.arrived < live_threads_) {
    barrier.waiters.push_back(ctx.index_);
    return true;  // block
  }

  // Last arrival: release everyone at max_arrival + overhead. Waiting cores
  // spin forward to the release time.
  const Cycles release = barrier.max_arrival + config_.barrier_overhead;
  for (u32 waiter : barrier.waiters) {
    ThreadContext& wctx = *threads_[waiter].context;
    const Cycles wclock = machine_->core_clock(wctx.core_);
    if (release > wclock) machine_->wait(wctx.core_, release - wclock);
    wctx.state_ = ThreadContext::State::kRunnable;
  }
  const Cycles own = machine_->core_clock(ctx.core_);
  if (release > own) machine_->advance(ctx.core_, release - own);  // last arrival was working
  barrier.arrived = 0;
  barrier.max_arrival = 0;
  barrier.waiters.clear();
  return false;
}

RunResult Runner::run(const Program& program) {
  NPAT_CHECK_MSG(!program.threads.empty(), "program needs at least one thread");
  NPAT_CHECK_MSG(threads_.empty(), "Runner::run is not reentrant");

  const Cycles start_clock = machine_->max_clock();
  machine_->set_coherence_enabled(program.threads.size() > 1);
  phase_marks_.clear();
  barriers_.clear();
  for (auto& sampler : samplers_) sampler.next_fire = start_clock + sampler.interval;

  // Materialize thread records. Bodies are created suspended.
  live_threads_ = static_cast<u32>(program.threads.size());
  const std::vector<TaskSpec> tasks = resolved_tasks(program);
  for (u32 i = 0; i < program.threads.size(); ++i) {
    const sim::CoreId core =
        os::core_for_thread(machine_->topology(), config_.affinity, i);
    auto context = std::unique_ptr<ThreadContext>(
        new ThreadContext(*this, i, core, config_.seed ^ (0x9e3779b9ULL * (i + 1))));
    context->pid_ = tasks[i].pid;
    context->tid_ = tasks[i].tid;
    SimTask task = program.threads[i](*context);
    NPAT_CHECK_MSG(task.valid(), "thread body must return a live SimTask");
    context->active_ = task.handle();
    context->tag_baseline_ = machine_->core_counters(core);
    threads_.push_back(ThreadRecord{std::move(context), std::move(task)});
  }

  RunResult result;
  for (;;) {
    // Pick the runnable thread with the smallest core clock.
    u32 chosen = std::numeric_limits<u32>::max();
    Cycles best = std::numeric_limits<Cycles>::max();
    bool any_unfinished = false;
    for (u32 i = 0; i < threads_.size(); ++i) {
      const ThreadContext& ctx = *threads_[i].context;
      if (ctx.state_ == ThreadContext::State::kDone) continue;
      any_unfinished = true;
      if (ctx.state_ != ThreadContext::State::kRunnable) continue;
      const Cycles clock = clock_of(i);
      if (clock < best) {
        best = clock;
        chosen = i;
      }
    }
    if (!any_unfinished) break;
    if (chosen == std::numeric_limits<u32>::max()) {
      threads_.clear();
      NPAT_CHECK_MSG(false, "deadlock: all live threads blocked on barriers");
    }

    ThreadRecord& record = threads_[chosen];
    ThreadContext& ctx = *record.context;
    fire_samplers(best);
    ctx.slice_end_ = best + config_.quantum;
    if (config_.task_accounting) {
      // Context switch: charge the outgoing task's counter delta and
      // re-baseline for this slice's (pid, tid).
      machine_->pmu(ctx.core_).set_current_task(sim::TaskKey{ctx.pid_, ctx.tid_});
    }
    ctx.active_.resume();  // innermost coroutine of this thread's chain
    ++result.scheduler_slices;

    if (record.task.done()) {
      try {
        record.task.rethrow_if_failed();
      } catch (...) {
        threads_.clear();
        throw;
      }
      ctx.state_ = ThreadContext::State::kDone;
      ctx.flush_tag_delta();  // attribute the final region
      --live_threads_;
      // Threads parked on a barrier can never be released if the finished
      // thread was required; re-check feasibility.
      for (auto& [id, barrier] : barriers_) {
        if (!barrier.waiters.empty() && barrier.arrived >= live_threads_) {
          const Cycles release = barrier.max_arrival + config_.barrier_overhead;
          for (u32 waiter : barrier.waiters) {
            ThreadContext& wctx = *threads_[waiter].context;
            const Cycles wclock = machine_->core_clock(wctx.core_);
            if (release > wclock) machine_->wait(wctx.core_, release - wclock);
            wctx.state_ = ThreadContext::State::kRunnable;
          }
          barrier.arrived = 0;
          barrier.max_arrival = 0;
          barrier.waiters.clear();
        }
      }
    }
  }

  if (config_.task_accounting) machine_->flush_task_accounting();
  fire_samplers(machine_->max_clock());
  result.duration = machine_->max_clock() - start_clock;
  result.phase_marks = std::move(phase_marks_);
  // Return the barrier ticket lines to the OS. They are run-local state;
  // leaking them would leave a replay in the same address space starting
  // from a different placement than a fresh run. Freed after the final
  // sampler tick so in-run footprint samples are unaffected.
  for (auto& [id, barrier] : barriers_) {
    if (barrier.flag != 0) space_->free(barrier.flag);
  }
  barriers_.clear();
  threads_.clear();
  live_threads_ = 0;
  return result;
}

}  // namespace npat::trace
