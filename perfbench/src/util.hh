/**
 * @file
 * Small helpers shared by the benchmark program: host clock, order
 * statistics, FNV digests and a closed-loop worker pool.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host wall-clock seconds since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * The q-quantile (0..1) of @p v by linear interpolation between
 * closest ranks; NaN for an empty sample.
 */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/** FNV-1a 64-bit running digest over text. */
class Digest
{
  public:
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        h ^= 0xff;
        h *= 0x100000001b3ull;
    }

    void add(std::uint64_t v) { add(std::to_string(v)); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/**
 * Closed-loop worker pool that lives as long as its owner, so every
 * round runs on the same host threads: each worker takes the next job
 * index as soon as its previous call returns. With one worker the
 * calls run inline on the caller, in index order.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(unsigned workers)
    {
        if (workers <= 1)
            return;
        for (unsigned w = 0; w < workers; ++w)
            threads.emplace_back([this] { loop(); });
    }

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            stopping = true;
        }
        cvWork.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Call @p fn(0..jobs-1) and return when every call has; rethrows
     *  the first exception a call threw. */
    void
    run(std::size_t jobs, const std::function<void(std::size_t)> &fn)
    {
        if (threads.empty()) {
            for (std::size_t i = 0; i < jobs; ++i)
                fn(i);
            return;
        }
        std::unique_lock<std::mutex> lock(mu);
        task = &fn;
        total = jobs;
        cursor.store(0);
        error = nullptr;
        busy = static_cast<unsigned>(threads.size());
        ++generation;
        cvWork.notify_all();
        cvDone.wait(lock, [this] { return busy == 0; });
        task = nullptr;
        if (error)
            std::rethrow_exception(error);
    }

  private:
    void
    loop()
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            cvWork.wait(lock,
                        [&] { return stopping || generation != seen; });
            if (stopping)
                return;
            seen = generation;
            const std::function<void(std::size_t)> &fn = *task;
            const std::size_t n = total;
            lock.unlock();
            try {
                for (std::size_t i = cursor.fetch_add(1); i < n;
                     i = cursor.fetch_add(1))
                    fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> guard(mu);
                if (!error)
                    error = std::current_exception();
                cursor.store(n);
            }
            lock.lock();
            if (--busy == 0)
                cvDone.notify_all();
        }
    }

    std::mutex mu; ///< guards every member below except cursor
    std::condition_variable cvWork;
    std::condition_variable cvDone;
    const std::function<void(std::size_t)> *task = nullptr;
    std::size_t total = 0;
    std::atomic<std::size_t> cursor{0};
    std::uint64_t generation = 0;
    unsigned busy = 0;
    bool stopping = false;
    std::exception_ptr error;
    std::vector<std::thread> threads; ///< last: uses the members above
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
