#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "util.hh"

namespace perfbench
{

namespace
{

std::atomic<bool> recording{false};
std::atomic<std::uint64_t> nextSpanId{1};
const Clock::time_point origin = Clock::now();

/** One thread's spans; outlives the thread through the registry. */
struct ThreadLog
{
    unsigned thread = 0;
    std::uint64_t job = 0;
    std::vector<std::uint64_t> open; ///< ids of open spans, innermost last
    std::mutex mu;                   ///< guards done
    std::vector<SpanRecord> done;
};

std::mutex registryMu;
std::vector<std::shared_ptr<ThreadLog>> registry;

ThreadLog &
threadLog()
{
    thread_local std::shared_ptr<ThreadLog> log = [] {
        auto l = std::make_shared<ThreadLog>();
        std::lock_guard<std::mutex> lock(registryMu);
        l->thread = static_cast<unsigned>(registry.size()) + 1;
        registry.push_back(l);
        return l;
    }();
    return *log;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

} // namespace

void
setRecording(bool on)
{
    recording.store(on, std::memory_order_relaxed);
}

void
setCurrentJob(std::uint64_t job)
{
    threadLog().job = job;
}

std::vector<SpanRecord>
takeSpans()
{
    std::vector<SpanRecord> all;
    std::lock_guard<std::mutex> lock(registryMu);
    for (const auto &log : registry) {
        std::lock_guard<std::mutex> inner(log->mu);
        all.insert(all.end(), log->done.begin(), log->done.end());
        log->done.clear();
    }
    return all;
}

Span::Span(const char *layer, const char *name)
{
    if (!recording.load(std::memory_order_relaxed))
        return;
    ThreadLog &log = threadLog();
    active = true;
    rec.id = nextSpanId.fetch_add(1, std::memory_order_relaxed);
    rec.parent = log.open.empty() ? 0 : log.open.back();
    rec.job = log.job;
    rec.thread = log.thread;
    rec.layer = layer;
    rec.name = name;
    log.open.push_back(rec.id);
    rec.startNs = nowNs();
}

Span::~Span()
{
    if (!active)
        return;
    rec.endNs = nowNs();
    ThreadLog &log = threadLog();
    log.open.pop_back();
    std::lock_guard<std::mutex> lock(log.mu);
    log.done.push_back(rec);
}

std::map<std::string, double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    // Children run on their parent's thread inside its interval, so
    // subtracting their durations leaves exactly the uncovered part.
    std::unordered_map<std::uint64_t, std::int64_t> childNs;
    for (const SpanRecord &s : spans) {
        if (s.parent)
            childNs[s.parent] += s.endNs - s.startNs;
    }
    std::map<std::string, double> self;
    for (const SpanRecord &s : spans) {
        std::int64_t ns = s.endNs - s.startNs;
        auto it = childNs.find(s.id);
        if (it != childNs.end())
            ns -= it->second;
        self[s.layer] += static_cast<double>(ns) * 1e-9;
    }
    return self;
}

namespace
{

struct TraceEvent
{
    std::int64_t ns = 0;
    char phase = 'B';
    const SpanRecord *span = nullptr;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
micros(std::int64_t ns)
{
    std::ostringstream os;
    os.precision(15);
    os << static_cast<double>(ns) / 1000.0;
    return os.str();
}

} // namespace

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans)
{
    // Per thread, open and close spans in nesting order: sort by
    // start (outer first on ties) and close every open span that is
    // not the next span's parent before opening it. Each thread's
    // events then have non-decreasing timestamps and a stable merge
    // keeps them ordered across threads.
    std::map<unsigned, std::vector<const SpanRecord *>> byThread;
    for (const SpanRecord &s : spans)
        byThread[s.thread].push_back(&s);
    std::vector<TraceEvent> events;
    for (auto &[thread, list] : byThread) {
        std::sort(list.begin(), list.end(),
                  [](const SpanRecord *a, const SpanRecord *b) {
                      if (a->startNs != b->startNs)
                          return a->startNs < b->startNs;
                      return a->id < b->id;
                  });
        std::vector<const SpanRecord *> stack;
        for (const SpanRecord *s : list) {
            while (!stack.empty() && stack.back()->id != s->parent) {
                events.push_back({stack.back()->endNs, 'E', stack.back()});
                stack.pop_back();
            }
            events.push_back({s->startNs, 'B', s});
            stack.push_back(s);
        }
        while (!stack.empty()) {
            events.push_back({stack.back()->endNs, 'E', stack.back()});
            stack.pop_back();
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ns < b.ns;
                     });

    std::ostringstream os;
    os << "{\"traceEvents\": [\n";
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"args\": {\"name\": \"perfbench\"}}";
    for (const auto &entry : byThread) {
        os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": "
           << entry.first << ", \"args\": {\"name\": \"bench thread "
           << entry.first << "\"}}";
    }
    std::int64_t last = 0;
    for (const TraceEvent &e : events) {
        const SpanRecord &s = *e.span;
        last = e.ns;
        os << ",\n{\"name\": " << jsonString(s.name) << ", \"cat\": "
           << jsonString(s.layer) << ", \"ph\": \"" << e.phase
           << "\", \"ts\": " << micros(e.ns) << ", \"pid\": 1, \"tid\": "
           << s.thread;
        if (e.phase == 'B') {
            os << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
               << s.parent << ", \"job\": " << s.job << "}";
        }
        os << "}";
    }
    for (const auto &[layer, seconds] : selfTimes(spans)) {
        os << ",\n{\"name\": " << jsonString("self_ms." + layer)
           << ", \"ph\": \"C\", \"ts\": " << micros(last)
           << ", \"pid\": 1, \"tid\": 0, \"args\": {\"value\": "
           << seconds * 1e3 << "}}";
    }
    os << "\n]}\n";

    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << os.str();
    return static_cast<bool>(f);
}

} // namespace perfbench
