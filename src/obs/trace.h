/**
 * @file
 * The telemetry plane: one deterministic recorder of spans and
 * instants stamped on *virtual* time, exported as Chrome `trace_event`
 * JSON (load the file in Perfetto or chrome://tracing). It is the only
 * sink: task spans, ingest stalls, pressure sweeps, admission
 * decisions, checkpoints, fault firings and recovery lines all land
 * here, and tests query it by category.
 *
 * Determinism is the design center: events are only ever recorded
 * from the single-threaded simulation control path (executor
 * dispatch-completion callbacks, source scheduling, monitor ticks,
 * the server control plane) — never from inside WorkerPool host
 * threads — so the record order equals the co-simulation's event
 * order and the same seed yields a byte-identical trace at any host
 * thread count. Timestamps are virtual nanoseconds rendered with
 * fixed integer formatting; no wall clock ever enters the file.
 *
 * Track mapping: pid = engine shard, tid = stream/tenant id (0 is
 * the control plane / engine-internal track), so Perfetto renders
 * one process lane per shard with one thread lane per tenant.
 */

#ifndef SBHBM_OBS_TRACE_H
#define SBHBM_OBS_TRACE_H

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/json_writer.h"

namespace sbhbm::obs {

/** One numeric argument attached to a trace event. */
struct TraceArg
{
    const char *key = "";
    uint64_t value = 0;
};

/**
 * One recorded event. `ph` follows the Chrome trace_event phase
 * codes: 'X' = complete span (ts + dur), 'i' = instant. `cat` and
 * arg keys are string literals at every call site, so events store
 * the pointers directly.
 */
struct TraceEvent
{
    SimTime ts = 0;
    SimTime dur = 0;
    uint32_t pid = 0;
    uint32_t tid = 0;
    char ph = 'i';
    const char *cat = "";
    std::string name;
    uint32_t nargs = 0;
    TraceArg args[3];
};

/** Append-only event recorder + Chrome trace_event JSON exporter. */
class TraceSink
{
  public:
    /** Record a complete span: [ts, ts + dur) on (pid, tid). */
    void
    span(SimTime ts, SimTime dur, uint32_t pid, uint32_t tid,
         const char *cat, std::string name,
         std::initializer_list<TraceArg> args = {})
    {
        push('X', ts, dur, pid, tid, cat, std::move(name), args);
    }

    /** Record a point event at @p ts on (pid, tid). */
    void
    instant(SimTime ts, uint32_t pid, uint32_t tid, const char *cat,
            std::string name,
            std::initializer_list<TraceArg> args = {})
    {
        push('i', ts, 0, pid, tid, cat, std::move(name), args);
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

    /**
     * Export as a Chrome trace_event document: metadata naming each
     * shard process and tenant thread first (sorted), then every
     * event in record order. ts/dur are microseconds with exactly
     * three decimals — integer-derived, so export is byte-stable.
     */
    void
    exportJson(JsonWriter &w) const
    {
        std::set<uint32_t> pids;
        std::set<std::pair<uint32_t, uint32_t>> tids;
        for (const TraceEvent &e : events_) {
            pids.insert(e.pid);
            tids.insert({e.pid, e.tid});
        }

        w.beginObject();
        w.key("displayTimeUnit").value("ms");
        w.key("traceEvents").beginArray();
        for (uint32_t p : pids) {
            w.beginObject();
            w.key("name").value("process_name");
            w.key("ph").value("M");
            w.key("pid").value(p);
            w.key("args").beginObject();
            w.key("name").value("shard " + std::to_string(p));
            w.endObject();
            w.endObject();
        }
        for (const auto &[p, t] : tids) {
            w.beginObject();
            w.key("name").value("thread_name");
            w.key("ph").value("M");
            w.key("pid").value(p);
            w.key("tid").value(t);
            w.key("args").beginObject();
            w.key("name").value(
                t == 0 ? std::string("control")
                       : "tenant " + std::to_string(t));
            w.endObject();
            w.endObject();
        }
        for (const TraceEvent &e : events_) {
            w.beginObject();
            w.key("name").value(e.name);
            w.key("cat").value(e.cat);
            const char phs[2] = {e.ph, '\0'};
            w.key("ph").value(phs);
            w.key("ts").rawValue(micros(e.ts));
            if (e.ph == 'X')
                w.key("dur").rawValue(micros(e.dur));
            w.key("pid").value(e.pid);
            w.key("tid").value(e.tid);
            if (e.nargs > 0) {
                w.key("args").beginObject();
                for (uint32_t i = 0; i < e.nargs; ++i)
                    w.key(e.args[i].key).value(e.args[i].value);
                w.endObject();
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    /** The full export as a pretty JSON string (tests diff this). */
    std::string
    json() const
    {
        JsonWriter w;
        exportJson(w);
        return w.str();
    }

  private:
    /** Virtual ns → "µs.frac" with exactly three decimals. */
    static std::string
    micros(SimTime ns)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                      static_cast<unsigned long long>(ns / 1000),
                      static_cast<unsigned long long>(ns % 1000));
        return buf;
    }

    void
    push(char ph, SimTime ts, SimTime dur, uint32_t pid, uint32_t tid,
         const char *cat, std::string name,
         std::initializer_list<TraceArg> args)
    {
        TraceEvent e;
        e.ts = ts;
        e.dur = dur;
        e.pid = pid;
        e.tid = tid;
        e.ph = ph;
        e.cat = cat;
        e.name = std::move(name);
        for (const TraceArg &a : args) {
            if (e.nargs < 3)
                e.args[e.nargs++] = a;
        }
        events_.push_back(std::move(e));
    }

    std::vector<TraceEvent> events_;
};

/**
 * The unit of telemetry a caller installs on an engine / server: the
 * trace sink shared by every layer that instruments itself. A null
 * Telemetry pointer (the default everywhere) disables all recording —
 * the hot paths pay one pointer null check and the simulation stays
 * bit-identical.
 */
struct Telemetry
{
    TraceSink trace;
};

} // namespace sbhbm::obs

#endif // SBHBM_OBS_TRACE_H
