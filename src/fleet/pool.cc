#include "fleet/pool.hh"

namespace edb::fleet {

WorkStealingPool::WorkStealingPool(unsigned thread_count)
    : shardCount(thread_count == 0 ? 1 : thread_count)
{
    shardQ.reserve(shardCount);
    for (unsigned i = 0; i < shardCount; ++i)
        shardQ.push_back(std::make_unique<Shard>());
    if (thread_count == 0)
        return;
    workers.reserve(thread_count);
    for (unsigned i = 0; i < thread_count; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

WorkStealingPool::~WorkStealingPool()
{
    {
        std::lock_guard<std::mutex> lock(batchMtx);
        shutdown = true;
    }
    workCv.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
WorkStealingPool::runBatch(std::vector<Task> tasks,
                           const std::vector<unsigned> &homeShard)
{
    if (workers.empty()) {
        // Inline mode: the caller's thread is the single shard.
        for (Task &t : tasks) {
            t();
            localRuns.fetch_add(1, std::memory_order_relaxed);
        }
        return;
    }
    // Count before queueing (a worker still draining the last batch
    // may take a task at once), generation after: a worker woken by
    // the generation must find the tasks, or it sleeps through them.
    {
        std::lock_guard<std::mutex> lock(batchMtx);
        remaining = tasks.size();
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        unsigned shard =
            (i < homeShard.size() ? homeShard[i] : 0) % shardCount;
        std::lock_guard<std::mutex> lock(shardQ[shard]->mtx);
        shardQ[shard]->q.push_back(std::move(tasks[i]));
    }
    {
        std::lock_guard<std::mutex> lock(batchMtx);
        ++batchGen;
    }
    workCv.notify_all();
    std::unique_lock<std::mutex> lock(batchMtx);
    doneCv.wait(lock, [this] { return remaining == 0; });
}

bool
WorkStealingPool::popLocal(unsigned self, Task &task)
{
    Shard &s = *shardQ[self];
    std::lock_guard<std::mutex> lock(s.mtx);
    if (s.q.empty())
        return false;
    task = std::move(s.q.front());
    s.q.pop_front();
    return true;
}

bool
WorkStealingPool::stealFrom(unsigned self, Task &task)
{
    // Scan for the deepest victim, then take from its back — the
    // classic steal-the-cold-end policy, keeping the victim's front
    // (its cache-warm next task) untouched.
    unsigned victim = shardCount;
    std::size_t deepest = 0;
    for (unsigned v = 0; v < shardCount; ++v) {
        if (v == self)
            continue;
        std::lock_guard<std::mutex> lock(shardQ[v]->mtx);
        if (shardQ[v]->q.size() > deepest) {
            deepest = shardQ[v]->q.size();
            victim = v;
        }
    }
    if (victim == shardCount)
        return false;
    Shard &s = *shardQ[victim];
    std::lock_guard<std::mutex> lock(s.mtx);
    if (s.q.empty())
        return false;
    task = std::move(s.q.back());
    s.q.pop_back();
    return true;
}

void
WorkStealingPool::workerLoop(unsigned self)
{
    std::uint64_t seenGen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(batchMtx);
            workCv.wait(lock, [this, &seenGen] {
                return shutdown ||
                       (remaining != 0 && batchGen != seenGen);
            });
            if (shutdown)
                return;
            seenGen = batchGen;
        }
        for (;;) {
            Task task;
            bool stolen = false;
            if (!popLocal(self, task)) {
                if (!stealFrom(self, task))
                    break;
                stolen = true;
            }
            task();
            (stolen ? stolenRuns : localRuns)
                .fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(batchMtx);
            if (--remaining == 0) {
                doneCv.notify_all();
                break;
            }
        }
    }
}

} // namespace edb::fleet
