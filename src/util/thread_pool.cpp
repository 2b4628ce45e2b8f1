#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace ranm {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads = resolve_thread_count(threads);
  workers_.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) cv_.wait(lock);
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // Shared per-call state. Workers hold the shared_ptr, so the state (and
  // with it the completion protocol) stays alive even if a worker is still
  // inside its drain loop after the caller has returned.
  struct Batch {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    Mutex mu;
    CondVar cv;
    std::exception_ptr error RANM_GUARDED_BY(mu);  // first failure only
  };
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->body = &body;  // outlives the call: we block until done == count

  auto drain = [batch] {
    for (;;) {
      const std::size_t i =
          batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch->count) return;
      try {
        (*batch->body)(i);
      } catch (...) {
        const MutexLock lock(batch->mu);
        if (!batch->error) batch->error = std::current_exception();
      }
      if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          batch->count) {
        // Lock pairs with the caller's predicate check so the final
        // notification cannot slip between its test and its wait.
        const MutexLock lock(batch->mu);
        batch->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(workers_.size(), count - 1);
  {
    const MutexLock lock(mu_);
    for (std::size_t t = 0; t < helpers; ++t) tasks_.emplace_back(drain);
  }
  cv_.notify_all();

  drain();  // the calling thread is one of the lanes

  MutexLock lock(batch->mu);
  while (batch->done.load(std::memory_order_acquire) != batch->count) {
    batch->cv.wait(lock);
  }
  // Move the exception out: helpers still queued hold `batch` past this
  // return, and the exception must be released by its handler's thread,
  // not by whichever helper drops the last reference.
  if (batch->error) {
    std::rethrow_exception(std::exchange(batch->error, nullptr));
  }
}

}  // namespace ranm
