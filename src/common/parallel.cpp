#include "common/parallel.hpp"

#include "common/trace.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wifisense::common {

namespace {

/// >0 while the current thread is executing tasks of a parallel region.
thread_local int tl_region_depth = 0;

/// True on the pool's worker threads (never on a region's calling thread).
thread_local bool tl_pool_worker = false;

/// One parallel region: a batch of `n` tasks drained via an atomic cursor.
/// The task is a raw function pointer + opaque context (not std::function),
/// so posting a region never touches the heap.
struct Job {
    void (*task)(const void*, std::size_t) = nullptr;
    const void* ctx = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::size_t done = 0;    // completed tasks; guarded by the pool mutex
    std::size_t active = 0;  // workers inside drain(); guarded by the pool mutex
    std::exception_ptr error;
    std::mutex error_mu;
};

class ThreadPool {
public:
    static ThreadPool& instance() {
        static ThreadPool pool;
        return pool;
    }

    ~ThreadPool() { stop_workers(); }

    void configure(ExecutionConfig cfg) {
        std::lock_guard region(region_mu_);
        cfg_ = cfg;
        const std::size_t want = resolve_threads(cfg_) - 1;
        if (want != workers_.size()) {
            stop_workers();
            spawn_workers(want);
        }
    }

    ExecutionConfig config() {
        std::lock_guard region(region_mu_);
        return cfg_;
    }

    std::size_t threads() {
        std::lock_guard region(region_mu_);
        return workers_.size() + 1;
    }

    // Posting and draining a parallel region is on the steady-state path of
    // training, inference, and the fleet simulator: it must stay heap-free
    // at any thread count.
    // wifisense-lint: noalloc-begin

    /// Run task(ctx, 0..n-1) to completion, caller participating.
    // wifisense-lint: allow-call(rethrow_exception) rethrows the region body's own exception; bodies proven noexcept by their contracts never store one
    void run_region(std::size_t n, void (*task)(const void*, std::size_t),
                    const void* ctx) {
        if (n == 0) return;
        if (tl_region_depth > 0) {  // nested region: inline, no fan-out
            run_inline(n, task, ctx);
            return;
        }
        std::lock_guard region(region_mu_);
        if (workers_.empty() || n == 1) {
            run_inline(n, task, ctx);
            return;
        }
        Job job;
        job.task = task;
        job.ctx = ctx;
        job.n = n;
        {
            std::lock_guard lk(mu_);
            job_ = &job;
        }
        cv_work_.notify_all();
        const std::size_t mine = drain(job);
        {
            std::unique_lock lk(mu_);
            job.done += mine;
            // Wait for all tasks AND for every registered worker to leave
            // drain() — a worker may still hold a pointer to `job` even after
            // the last task completed.
            cv_done_.wait(lk, [&] { return job.done == job.n && job.active == 0; });
            job_ = nullptr;
        }
        if (job.error) std::rethrow_exception(job.error);
    }
    // wifisense-lint: noalloc-end

private:
    ThreadPool() {
        std::size_t threads = resolve_threads({});
        if (const char* env = std::getenv("WIFISENSE_THREADS")) {
            const long v = std::atol(env);
            if (v > 0) threads = static_cast<std::size_t>(v);
        }
        cfg_.threads = threads;
        spawn_workers(threads - 1);
    }

    // wifisense-lint: allow-call(task) type-erased trampoline: the pointed-to chunk lambda is scanned in place at the enclosing parallel_for_chunks call site
    static void run_inline(std::size_t n, void (*task)(const void*, std::size_t),
                           const void* ctx) {
        ++tl_region_depth;
        try {
            for (std::size_t i = 0; i < n; ++i) task(ctx, i);
        } catch (...) {
            --tl_region_depth;
            // wifisense-lint: allow(ipa.throw-leak) rethrows the region
            // body's own exception; proven-noexcept bodies never throw here
            throw;
        }
        --tl_region_depth;
    }

    /// Pull tasks until the cursor runs out; returns how many this thread ran.
    // wifisense-lint: allow-call(task) type-erased trampoline: the pointed-to chunk lambda is scanned in place at the enclosing parallel_for_chunks call site
    static std::size_t drain(Job& job) {
        ++tl_region_depth;
        std::size_t mine = 0;
        for (;;) {
            const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.n) break;
            try {
                job.task(job.ctx, i);
            } catch (...) {
                std::lock_guard lk(job.error_mu);
                if (!job.error) job.error = std::current_exception();
            }
            ++mine;
        }
        --tl_region_depth;
        return mine;
    }

    void worker_loop() {
        tl_pool_worker = true;
        for (;;) {
            Job* job = nullptr;
            {
                std::unique_lock lk(mu_);
                cv_work_.wait(lk, [&] {
                    return stop_ ||
                           (job_ != nullptr &&
                            job_->next.load(std::memory_order_relaxed) < job_->n);
                });
                if (stop_) return;
                job = job_;
                ++job->active;
            }
            const std::size_t mine = drain(*job);
            {
                std::lock_guard lk(mu_);
                job->done += mine;
                --job->active;
                if (job->done == job->n && job->active == 0) cv_done_.notify_all();
            }
        }
    }

    void spawn_workers(std::size_t count) {
        stop_ = false;
        workers_.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    void stop_workers() {
        {
            std::lock_guard lk(mu_);
            stop_ = true;
        }
        cv_work_.notify_all();
        for (std::thread& t : workers_)
            if (t.joinable()) t.join();
        workers_.clear();
    }

    std::mutex region_mu_;  ///< serializes top-level regions and reconfiguration
    std::mutex mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    Job* job_ = nullptr;  // guarded by mu_
    bool stop_ = false;   // guarded by mu_
    std::vector<std::thread> workers_;
    ExecutionConfig cfg_;  // guarded by region_mu_
};

}  // namespace

std::size_t resolve_threads(const ExecutionConfig& cfg) {
    if (cfg.threads > 0) return cfg.threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void set_execution_config(const ExecutionConfig& cfg) {
    ThreadPool::instance().configure(cfg);
}

ExecutionConfig execution_config() { return ThreadPool::instance().config(); }

std::size_t thread_count() { return ThreadPool::instance().threads(); }

std::size_t configure_threads_from_env() {
    if (const char* env = std::getenv("WIFISENSE_THREADS")) {
        const long v = std::atol(env);
        if (v > 0) set_execution_config({.threads = static_cast<std::size_t>(v)});
    }
    return thread_count();
}

bool in_parallel_region() { return tl_region_depth > 0; }

namespace detail {

bool region_runs_inline(std::size_t tasks) {
    return tasks <= 1 || tl_region_depth > 0 || ThreadPool::instance().threads() == 1;
}

InlineRegion::InlineRegion() { ++tl_region_depth; }
InlineRegion::~InlineRegion() { --tl_region_depth; }

// The type-erased fan-out: stack context + captureless trampolines only,
// zero heap allocations per region.
// wifisense-lint: noalloc-begin

/// Per-region chunk description, passed by address through the pool.
struct ChunkCtx {
    std::size_t n;
    std::size_t chunk_size;
    void (*body)(const void*, std::size_t, std::size_t);
    const void* body_ctx;
};

// wifisense-lint: allow-call(body) type-erased trampoline: the pointed-to chunk lambda is scanned in place at the enclosing parallel_for_chunks call site
// wifisense-lint: allow-call(TraceScope) env-gated observability: the span ring is preallocated at trace start; a disabled tracer records nothing
void run_chunks_erased(std::size_t n, std::size_t chunk_size,
                       void (*body)(const void* ctx, std::size_t begin,
                                    std::size_t end),
                       const void* ctx) {
    const std::size_t chunks = (n + chunk_size - 1) / chunk_size;
    const ChunkCtx chunk_ctx{n, chunk_size, body, ctx};
    ThreadPool::instance().run_region(
        chunks,
        +[](const void* p, std::size_t c) {
            const auto& cc = *static_cast<const ChunkCtx*>(p);
            const std::size_t begin = c * cc.chunk_size;
            const std::size_t end = std::min(cc.n, begin + cc.chunk_size);
            // A chunk a worker runs records one span on that worker, so
            // spans emitted inside `body` nest under their chunk in the
            // trace viewer. A chunk the calling thread drains itself needs
            // no marker, as on the inline path: it already runs nested under
            // the caller's spans, and a span per chunk there would push the
            // caller's own spans out of its ring.
            if (tl_pool_worker) {
                TraceScope span("pool.chunk");
                cc.body(cc.body_ctx, begin, end);
            } else {
                cc.body(cc.body_ctx, begin, end);
            }
        },
        &chunk_ctx);
}
// wifisense-lint: noalloc-end

}  // namespace detail

void parallel_invoke(std::span<const std::function<void()>> tasks) {
    ThreadPool::instance().run_region(
        tasks.size(),
        +[](const void* ctx, std::size_t i) {
            TraceScope span("pool.task");
            (*static_cast<const std::span<const std::function<void()>>*>(ctx))[i]();
        },
        &tasks);
}

}  // namespace wifisense::common
