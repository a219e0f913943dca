/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A Span is opened around one call into a simulator layer, from the
 * benchmark's own code. Each span records its name, layer, host start
 * and end, the span that was open on the same thread when it began
 * (its parent) and the job id the thread was working on. Nothing is
 * written until the run ends: takeSpans() gathers every thread's spans,
 * writeChromeTrace() emits them in the trace-event format that
 * tools/trace_check.py validates, and selfTimes() derives each
 * layer's self time (span duration minus the time its child spans
 * cover).
 *
 * While recording is disabled a Span costs one relaxed atomic load.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One closed span. Times are host nanoseconds since recorder start. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = top level
    std::uint64_t job = 0;
    unsigned thread = 0;
    const char *layer = "";
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Turn span recording on or off for every thread. */
void setRecording(bool on);

/** The job id recorded on spans this thread opens from now on. */
void setCurrentJob(std::uint64_t job);

/**
 * Remove and return every span closed so far on any thread, in no
 * particular order.
 */
std::vector<SpanRecord> takeSpans();

/** RAII span; inert while recording is off. */
class Span
{
  public:
    /** @p layer and @p name must be string literals (kept by pointer). */
    Span(const char *layer, const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active = false;
    SpanRecord rec;
};

/** Self time in seconds per layer over @p spans. */
std::map<std::string, double>
selfTimes(const std::vector<SpanRecord> &spans);

/**
 * Write @p spans as a Chrome trace-event JSON document at @p path,
 * one track per host thread, plus one counter per layer holding its
 * self time in ms. Returns false on I/O failure.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
